package core

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// TestSingleQueryAllocations holds the one-query methods to what their
// answers cost: a lone query is looked up as a block of one without
// allocating that block, so Query and QueryLSH allocate only the ids
// they return, DecideStrategy and EstimateCandSize nothing, and a warm
// QueryBlock nothing at all.
func TestSingleQueryAllocations(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector allocates")
	}
	const n, d = 2000, 16
	r := rng.New(5)
	pts := make([]vector.Dense, n)
	for i := range pts {
		p := make(vector.Dense, d)
		for j := range p {
			p[j] = float32(r.Float64())
		}
		pts[i] = p
	}
	ix, err := NewIndex(pts, Config[vector.Dense]{
		Family:   lsh.NewPStableL2(d, 1.2),
		Distance: distance.L2,
		Radius:   0.6,
		K:        4,
		L:        10,
		Seed:     3,
		Store:    pointstore.DenseL2Builder(pointstore.ModeOff),
	})
	if err != nil {
		t.Fatal(err)
	}
	q := pts[0]
	if ids, _ := ix.QueryLSH(q); len(ids) == 0 {
		t.Fatal("the query point finds nothing: the ids it returns would cost no allocation")
	}
	block := pts[:1]
	for _, c := range []struct {
		name string
		want float64
		call func()
	}{
		{"Query", 1, func() { ix.Query(q) }},
		{"QueryLSH", 1, func() { ix.QueryLSH(q) }},
		{"DecideStrategy", 0, func() { ix.DecideStrategy(q) }},
		{"EstimateCandSize", 0, func() { ix.EstimateCandSize(q) }},
		{"QueryBlock", 0, func() { ix.QueryBlock(block, QueryOpts{}, func(int, []int32, QueryStats) {}) }},
	} {
		c.call() // warm the pooled state
		if got := testing.AllocsPerRun(50, c.call); got != c.want {
			t.Errorf("%s allocates %v times per call, want %v", c.name, got, c.want)
		}
	}
}
