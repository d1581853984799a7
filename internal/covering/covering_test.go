package covering

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/vector"
)

// randomPoints returns n random dim-bit vectors plus a tight cluster of
// clusterSize points within maxFlips of a shared center.
func randomPoints(n, clusterSize, dim, maxFlips int, seed uint64) ([]vector.Binary, vector.Binary) {
	r := rng.New(seed)
	center := vector.NewBinary(dim)
	for j := 0; j < dim; j++ {
		center.SetBit(j, r.Float64() < 0.5)
	}
	pts := make([]vector.Binary, n)
	for i := 0; i < clusterSize; i++ {
		p := center.Clone()
		for _, b := range r.Sample(dim, r.Intn(maxFlips+1)) {
			p.FlipBit(b)
		}
		pts[i] = p
	}
	for i := clusterSize; i < n; i++ {
		p := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			p.SetBit(j, r.Float64() < 0.5)
		}
		pts[i] = p
	}
	return pts, center
}

func TestNewValidation(t *testing.T) {
	pts, _ := randomPoints(10, 2, 64, 1, 1)
	cases := []struct {
		r   int
		cfg Config
	}{
		{0, Config{}},
		{-1, Config{}},
		{MaxRadius + 1, Config{}},
		{70, Config{}}, // >= dim
		{4, Config{HLLRegisters: 7}},
	}
	for i, c := range cases {
		if _, err := New(pts, c.r, c.cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(nil, 4, Config{}); err == nil {
		t.Error("empty point set accepted")
	}
}

func TestTableCount(t *testing.T) {
	pts, _ := randomPoints(100, 20, 64, 2, 2)
	for _, r := range []int{1, 3, 5} {
		ix, err := New(pts, r, Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if want := 1<<(r+1) - 1; ix.L() != want {
			t.Fatalf("r=%d: %d tables, want %d", r, ix.L(), want)
		}
	}
}

// TestNoFalseNegatives is the covering guarantee: EVERY point within r
// shares a bucket with the query — across many random configurations.
func TestNoFalseNegatives(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		pts, center := randomPoints(400, 150, 64, 5, seed)
		ix, err := New(pts, 5, Config{Seed: seed * 7})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := ix.QueryLSH(center)
		truth := core.GroundTruth(pts, func(a, b vector.Binary) float64 {
			return float64(vector.Hamming(a, b))
		}, center, 5)
		if rec := core.Recall(out, truth); rec != 1 {
			t.Fatalf("seed %d: covering LSH missed neighbors: recall %v", seed, rec)
		}
	}
}

func TestHybridQueryAlwaysExact(t *testing.T) {
	pts, center := randomPoints(2000, 1500, 64, 3, 5)
	ix, err := New(pts, 4, Config{Seed: 6, Cost: core.CostModel{Alpha: 1, Beta: 10}})
	if err != nil {
		t.Fatal(err)
	}
	hamming := func(a, b vector.Binary) float64 { return float64(vector.Hamming(a, b)) }
	sawLinear, sawLSH := false, false
	queries := append([]vector.Binary{center}, pts[1500:1520]...)
	for _, q := range queries {
		out, stats := ix.Query(q)
		truth := core.GroundTruth(pts, hamming, q, 4)
		if rec := core.Recall(out, truth); rec != 1 {
			t.Fatalf("hybrid covering recall %v != 1", rec)
		}
		if len(out) != len(truth) {
			t.Fatalf("reported %d, truth %d (false positives?)", len(out), len(truth))
		}
		switch stats.Strategy {
		case core.StrategyLinear:
			sawLinear = true
		case core.StrategyLSH:
			sawLSH = true
		}
	}
	// The dense-cluster query must trip the linear fallback (2047+
	// buckets full of near-duplicates), random queries must stay on LSH.
	if !sawLinear {
		t.Error("no query fell back to linear despite 75% near-duplicates")
	}
	if !sawLSH {
		t.Error("no query used covering-LSH search")
	}
}

func TestQueryLinearMatchesGroundTruth(t *testing.T) {
	pts, center := randomPoints(300, 50, 64, 3, 7)
	ix, err := New(pts, 3, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	out, stats := ix.QueryLinear(center)
	truth := core.GroundTruth(pts, func(a, b vector.Binary) float64 {
		return float64(vector.Hamming(a, b))
	}, center, 3)
	if len(out) != len(truth) || core.Recall(out, truth) != 1 {
		t.Fatal("linear path not exact")
	}
	if stats.Strategy != core.StrategyLinear {
		t.Fatal("wrong strategy tag")
	}
}

func TestMaskedKeyIgnoresMaskedOutBits(t *testing.T) {
	mask := vector.NewBinary(64)
	mask.SetBit(3, true)
	mask.SetBit(40, true)
	a := vector.NewBinary(64)
	b := vector.NewBinary(64)
	b.SetBit(10, true) // not in mask: keys must match
	h := &maskHasher{mask: mask}
	if h.Key(a) != h.Key(b) {
		t.Fatal("masked-out bit changed the key")
	}
	b.SetBit(40, true) // in mask: keys must differ
	if h.Key(a) == h.Key(b) {
		t.Fatal("masked-in bit did not change the key")
	}
}

func TestParity(t *testing.T) {
	cases := map[uint32]uint32{0: 0, 1: 1, 3: 0, 7: 1, 0xFFFFFFFF: 0, 0x80000001: 0, 0x80000000: 1}
	for x, want := range cases {
		if got := parity(x); got != want {
			t.Errorf("parity(%#x) = %d, want %d", x, got, want)
		}
	}
}

func TestSketchesAttachedToLargeBuckets(t *testing.T) {
	pts, _ := randomPoints(3000, 2500, 64, 1, 9)
	ix, err := New(pts, 2, Config{HLLRegisters: 32, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for j := 0; j < ix.L(); j++ {
		for _, b := range ix.Tables().Table(j).Buckets {
			if len(b.IDs) >= 32 && b.Sketch == nil {
				t.Fatal("large bucket missing sketch")
			}
			if b.Sketch != nil {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no bucket got a sketch despite a 2500-point near-duplicate cluster")
	}
}

func TestConcurrentQueries(t *testing.T) {
	pts, center := randomPoints(500, 200, 64, 3, 11)
	ix, err := New(pts, 4, Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					ix.Query(center)
				} else {
					ix.Query(pts[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPhiOfSurvivesCompact holds the drawn map φ, its radius and its
// seed to the mask tables: Compact keeps them, down to n = 0, and
// Append into the emptied index still covers under them.
func TestPhiOfSurvivesCompact(t *testing.T) {
	pts, center := randomPoints(300, 100, 64, 2, 31)
	ix, err := New(pts, 3, Config{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	phi, ok := PhiOf(ix)
	if !ok || phi.Radius != 3 || phi.Seed != 32 || len(phi.Map) != 64 {
		t.Fatalf("PhiOf = %+v, %v; want radius 3, seed 32, 64 entries", phi, ok)
	}
	want := slices.Clone(phi.Map)
	check := func(stage string, x *core.Index[vector.Binary]) {
		t.Helper()
		got, ok := PhiOf(x)
		if !ok || got.Radius != 3 || got.Seed != 32 || !slices.Equal(got.Map, want) {
			t.Fatalf("%s: PhiOf = %+v, %v; want the built φ", stage, got, ok)
		}
	}
	dead := make([]bool, len(pts))
	for i := range dead {
		dead[i] = i%3 == 0
	}
	part, err := ix.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	check("compacted", part)
	for i := range dead {
		dead[i] = true
	}
	empty, err := ix.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	if empty.N() != 0 {
		t.Fatalf("full compaction left %d points", empty.N())
	}
	check("compacted to n = 0", empty)
	if err := empty.Append(pts); err != nil {
		t.Fatal(err)
	}
	out, _ := empty.QueryLSH(center)
	truth := core.GroundTruth(pts, distance.Hamming, center, 3)
	if rec := core.Recall(out, truth); rec != 1 {
		t.Fatalf("recall %v after refilling a fully compacted index, want 1", rec)
	}

	// A non-covering index has no φ.
	classic, err := core.NewIndex(pts, core.Config[vector.Binary]{
		Family: lsh.NewBitSampling(64), Distance: distance.Hamming, Radius: 3, L: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := PhiOf(classic); ok {
		t.Fatal("PhiOf found a φ on a classic index")
	}
}
