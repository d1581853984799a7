package core_test

// Multi-probe LSH is a field of core.Config (Probes = T ≥ 1), not a
// separate index: these tests pin the probing lookup (lsh.Tables.ProbeInto)
// through the shared query surface, and run the core.Store conformance
// suite over a multi-probe index (its pinned per-T hashes were recorded
// from the override methods QueryWith replaced).

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/storetest"
	"repro/internal/vector"
)

func testConfig(fam *lsh.PStable) core.Config[vector.Dense] {
	return core.Config[vector.Dense]{
		Family:   fam,
		Distance: distance.L2,
		Radius:   0.45,
		K:        10,
		L:        8,
		Probes:   12,
		Seed:     1,
	}
}

func corelData(t *testing.T) ([]vector.Dense, []vector.Dense) {
	t.Helper()
	ds := dataset.CorelLike(0.01, 3)
	return dataset.SplitQueries(ds.Points, 15, 4)
}

// queryLSHProbes is QueryLSHWith with t extra probes per table (t < 0:
// the built T).
func queryLSHProbes(tb testing.TB, ix *core.Index[vector.Dense], q vector.Dense, t int) ([]int32, core.QueryStats) {
	tb.Helper()
	ids, stats, err := ix.QueryLSHWith(q, core.QueryOpts{Probes: core.Some(t)})
	if err != nil {
		tb.Fatal(err)
	}
	return ids, stats
}

func TestMultiProbeConfigValidation(t *testing.T) {
	data, _ := corelData(t)
	cfg := testConfig(lsh.NewPStableL2(dataset.CorelDim, 0.9))
	cfg.Probes = -1
	if _, err := core.NewIndex(data, cfg); err == nil {
		t.Error("Probes = -1 accepted")
	}
	cfg.Probes = 0
	ix, err := core.NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Defaults() != (core.QueryOpts{}) {
		t.Fatalf("Probes = 0 built mode %+v, want classic", ix.Defaults())
	}
	if _, _, err := ix.QueryLSHWith(data[0], core.QueryOpts{Probes: core.Some(3)}); err == nil {
		t.Error("probe override accepted on a classic index")
	}
}

// TestMultiProbeRejectsNonProbingHashers: probing perturbs p-stable slot
// indices, so build and restore refuse T ≥ 1 over any other hasher.
func TestMultiProbeRejectsNonProbingHashers(t *testing.T) {
	data, _ := corelData(t)
	if _, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family: lsh.NewCrossPolytope(dataset.CorelDim, 3), Distance: distance.AngularDense,
		Radius: 0.2, K: 1, L: 2, Probes: 5, Seed: 1,
	}); err == nil {
		t.Error("cross-polytope multi-probe index built")
	}
	bits := make([]vector.Binary, 8)
	for i := range bits {
		bits[i] = vector.NewBinary(32)
		bits[i].SetBit(i, true)
	}
	cfg := core.Config[vector.Binary]{
		Family: lsh.NewBitSampling(32), Distance: distance.Hamming, Radius: 2, K: 4, L: 2, Probes: 5, Seed: 1,
	}
	if _, err := core.NewIndex(bits, cfg); err == nil {
		t.Error("bit-sampling multi-probe index built")
	}
	cfg.Probes = 0
	ix, err := core.NewIndex(bits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Restore(pointstore.NewGeneric(bits, distance.Hamming), ix.Tables(), core.RestoreConfig[vector.Binary]{
		Family: ix.Family(), Distance: distance.Hamming, Radius: 2, Delta: 0.1, P1: ix.P1(),
		Cost: ix.Cost(), Probes: 5,
	}); err == nil {
		t.Error("bit-sampling multi-probe index restored")
	}
}

// corelClusters generates n clustered Corel-dim points (σ = 0.03 around 10
// random centers), so radius-0.45 queries have non-trivial neighbors.
func corelClusters(n int, seed uint64) []vector.Dense {
	const nc = 10
	r := rng.New(seed)
	centers := make([]vector.Dense, nc)
	for i := range centers {
		c := make(vector.Dense, dataset.CorelDim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	pts := make([]vector.Dense, n)
	for i := range pts {
		c := centers[i%nc]
		p := make(vector.Dense, dataset.CorelDim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.03)
		}
		pts[i] = p
	}
	return pts
}

func TestStoreContractMultiProbeL2(t *testing.T) {
	storetest.Run(t, storetest.Harness[vector.Dense]{
		Name: "multiprobe-l2",
		New: func(t *testing.T, pts []vector.Dense, seed uint64) *core.Index[vector.Dense] {
			cfg := testConfig(lsh.NewPStableL2(dataset.CorelDim, 0.9))
			cfg.Seed = seed
			ix, err := core.NewIndex(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		// Same build over the SQ8-quantized flat store: the widened
		// probe sequences must verify to id-identical answers.
		NewQuant: func(t *testing.T, pts []vector.Dense, seed uint64) *core.Index[vector.Dense] {
			cfg := testConfig(lsh.NewPStableL2(dataset.CorelDim, 0.9))
			cfg.Seed = seed
			cfg.Store = pointstore.DenseL2Builder(pointstore.ModeSQ8)
			ix, err := core.NewIndex(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		Data: corelClusters,
		Pinned: []storetest.PinnedOverride{
			{Opts: core.QueryOpts{Probes: core.Some(0)}, Hash: 0xf4b0e5c34effc939},
			{Opts: core.QueryOpts{Probes: core.Some(3)}, Hash: 0x1801b63dd83956ae},
			{Opts: core.QueryOpts{Probes: core.Some(12)}, Hash: 0x9035a35487b1694f},
			{Opts: core.QueryOpts{Probes: core.Some(30)}, Hash: 0x340f86c0fe805abf},
		},
	})
}

func TestQueryProbesOverride(t *testing.T) {
	data, queries := corelData(t)
	fam := lsh.NewPStableL2(dataset.CorelDim, 0.9)
	cfg := testConfig(fam)
	ix, err := core.NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alt := cfg
	alt.Probes = 30
	wide, err := core.NewIndex(data, alt)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		// Override up: must equal the natively-T=30 index (same seed).
		a, _ := queryLSHProbes(t, ix, q, 30)
		b, _ := wide.QueryLSH(q)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("query %d: T=30 override %v != native T=30 %v", qi, a, b)
		}
		// t < 0 restores the default.
		c, _ := queryLSHProbes(t, ix, q, -1)
		d, _ := ix.QueryLSH(q)
		slices.Sort(c)
		slices.Sort(d)
		if !slices.Equal(c, d) {
			t.Fatalf("query %d: t=-1 %v != default %v", qi, c, d)
		}
	}
	// Probe counts must actually change the probed set size.
	_, s0 := queryLSHProbes(t, ix, queries[0], 0)
	_, s30 := queryLSHProbes(t, ix, queries[0], 30)
	if s30.Collisions < s0.Collisions {
		t.Fatalf("T=30 collisions %d < T=0 collisions %d", s30.Collisions, s0.Collisions)
	}
}

func TestMultiProbeBeatsClassicRecallPerTable(t *testing.T) {
	// With equal k and L, probing T extra buckets must improve recall.
	data, queries := corelData(t)
	fam := lsh.NewPStableL2(dataset.CorelDim, 0.9)
	cfgNoProbe := testConfig(fam)
	cfgNoProbe.Probes = 1 // the fewest probes a multi-probe index takes
	ixFew, err := core.NewIndex(data, cfgNoProbe)
	if err != nil {
		t.Fatal(err)
	}
	cfgProbe := testConfig(fam)
	cfgProbe.Probes = 30
	ixMany, err := core.NewIndex(data, cfgProbe)
	if err != nil {
		t.Fatal(err)
	}
	var recFew, recMany float64
	cnt := 0
	for _, q := range queries {
		truth := core.GroundTruth(data, distance.L2, q, 0.45)
		if len(truth) == 0 {
			continue
		}
		cnt++
		oFew, _ := ixFew.QueryLSH(q)
		oMany, _ := ixMany.QueryLSH(q)
		recFew += core.Recall(oFew, truth)
		recMany += core.Recall(oMany, truth)
	}
	if cnt == 0 {
		t.Fatal("no queries with neighbors")
	}
	if recMany < recFew-1e-9 {
		t.Fatalf("more probes lowered recall: %v -> %v", recFew/float64(cnt), recMany/float64(cnt))
	}
	if recMany/float64(cnt) < 0.8 {
		t.Fatalf("multi-probe recall %v < 0.8 despite 30 probes on 8 tables", recMany/float64(cnt))
	}
}

func TestMultiProbeQueryCorrectness(t *testing.T) {
	data, queries := corelData(t)
	fam := lsh.NewPStableL2(dataset.CorelDim, 0.9)
	ix, err := core.NewIndex(data, testConfig(fam))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		out, stats := ix.Query(q)
		if stats.Results != len(out) {
			t.Fatal("stats.Results mismatch")
		}
		for _, id := range out {
			if distance.L2(data[id], q) > 0.45 {
				t.Fatal("reported point beyond radius")
			}
		}
		seen := make(map[int32]bool)
		for _, id := range out {
			if seen[id] {
				t.Fatal("duplicate id reported")
			}
			seen[id] = true
		}
	}
}

func TestMultiProbeFallsBackOnHardQueries(t *testing.T) {
	// All points nearly identical: every bucket holds everything, so the
	// hybrid must pick linear search.
	r := rng.New(11)
	n := 3000
	pts := make([]vector.Dense, n)
	base := make(vector.Dense, 16)
	for j := range base {
		base[j] = float32(r.Normal())
	}
	for i := range pts {
		p := base.Clone()
		p[0] += float32(r.Normal() * 0.001)
		pts[i] = p
	}
	fam := lsh.NewPStableL2(16, 1)
	ix, err := core.NewIndex(pts, core.Config[vector.Dense]{
		Family: fam, Distance: distance.L2, Radius: 0.5,
		K: 6, L: 6, Probes: 10, Seed: 2,
		Cost: core.CostModel{Alpha: 1, Beta: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := ix.Query(base)
	if stats.Strategy != core.StrategyLinear {
		t.Fatalf("hard query used %v (collisions %d, est %v, LSHCost %v, LinearCost %v)",
			stats.Strategy, stats.Collisions, stats.EstCandidates, stats.LSHCost, stats.LinearCost)
	}
	if stats.Results != n {
		t.Fatalf("linear fallback reported %d of %d duplicates", stats.Results, n)
	}
}

func TestMultiProbeConcurrentQueries(t *testing.T) {
	data, queries := corelData(t)
	fam := lsh.NewPStableL2(dataset.CorelDim, 0.9)
	ix, err := core.NewIndex(data, testConfig(fam))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ix.Query(queries[i%len(queries)])
			}
		}()
	}
	wg.Wait()
}

func TestFewerTablesWithProbesMatchClassic(t *testing.T) {
	// The multi-probe pitch: L=8 tables with T=20 probes should reach
	// within a few points of classic L=50 recall.
	data, queries := corelData(t)
	classic, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family:   lsh.NewPStableL2(dataset.CorelDim, 0.9),
		Distance: distance.L2,
		Radius:   0.45,
		K:        7,
		L:        50,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family:   lsh.NewPStableL2(dataset.CorelDim, 0.9),
		Distance: distance.L2,
		Radius:   0.45,
		K:        7,
		L:        8,
		Probes:   20,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recClassic, recMP float64
	cnt := 0
	for _, q := range queries {
		truth := core.GroundTruth(data, distance.L2, q, 0.45)
		if len(truth) == 0 {
			continue
		}
		cnt++
		oc, _ := classic.QueryLSH(q)
		om, _ := mp.QueryLSH(q)
		recClassic += core.Recall(oc, truth)
		recMP += core.Recall(om, truth)
	}
	if cnt == 0 {
		t.Fatal("no queries with neighbors")
	}
	if recMP/float64(cnt) < recClassic/float64(cnt)-0.15 {
		t.Fatalf("multi-probe recall %.3f too far below classic %.3f",
			recMP/float64(cnt), recClassic/float64(cnt))
	}
	if math.IsNaN(recMP) {
		t.Fatal("NaN recall")
	}
}

func TestMultiProbeL1Family(t *testing.T) {
	// The probing machinery must work identically for the Cauchy family.
	ds := dataset.CoverTypeLike(0.0005, 41)
	data, queries := dataset.SplitQueries(ds.Points, 10, 42)
	ix, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family:   lsh.NewPStableL1(dataset.CoverTypeDim, 4*3400),
		Distance: distance.L1,
		Radius:   3400,
		K:        10,
		L:        6,
		Probes:   15,
		Seed:     43,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recall float64
	cnt := 0
	for _, q := range queries {
		truth := core.GroundTruth(data, distance.L1, q, 3400)
		if len(truth) == 0 {
			continue
		}
		cnt++
		out, _ := ix.Query(q)
		recall += core.Recall(out, truth)
	}
	if cnt == 0 {
		t.Skip("no L1 neighbors at this scale")
	}
	if recall/float64(cnt) < 0.6 {
		t.Fatalf("L1 multi-probe recall %v too low", recall/float64(cnt))
	}
}
