package multiprobe

import (
	"slices"
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

// The shard.Builder / compaction contracts — Append, CompactStore,
// DecideStrategy, QueryBatch — are pinned by the shared conformance
// suite, the per-query probe override included (its pinned hashes were
// recorded from the QueryProbes method core.Store.QueryWith replaced);
// this file keeps only the multi-probe-specific surface (FromCore
// validation and the forced-LSH probe variants).

// storeData generates n clustered Corel-dim points (σ = 0.03 around 10
// random centers), so radius-0.45 queries have non-trivial neighbors.
func storeData(n int, seed uint64) []vector.Dense {
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

func TestStoreContract(t *testing.T) {
	storetest.Run(t, storetest.Harness[vector.Dense]{
		Name: "multiprobe-l2",
		New: func(t *testing.T, pts []vector.Dense, seed uint64) core.Store[vector.Dense] {
			cfg := testConfig(lsh.NewPStableL2(dataset.CorelDim, 0.9))
			cfg.Seed = seed
			ix, err := New(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		// Same build over the SQ8-quantized flat store: the widened
		// probe sequences must verify to id-identical answers.
		NewQuant: func(t *testing.T, pts []vector.Dense, seed uint64) core.Store[vector.Dense] {
			cfg := testConfig(lsh.NewPStableL2(dataset.CorelDim, 0.9))
			cfg.Seed = seed
			cfg.Store = pointstore.DenseL2Builder(pointstore.ModeSQ8)
			ix, err := New(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		Data: storeData,
		Pinned: []storetest.PinnedOverride{
			{Opts: core.QueryOpts{Probes: core.Some(0)}, Hash: 0xf4b0e5c34effc939},
			{Opts: core.QueryOpts{Probes: core.Some(3)}, Hash: 0x1801b63dd83956ae},
			{Opts: core.QueryOpts{Probes: core.Some(12)}, Hash: 0x9035a35487b1694f},
			{Opts: core.QueryOpts{Probes: core.Some(30)}, Hash: 0x340f86c0fe805abf},
		},
	})
}

func TestFromCoreValidation(t *testing.T) {
	data, _ := corelData(t)
	fam := lsh.NewPStableL2(dataset.CorelDim, 0.9)
	ix, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family: fam, Distance: distance.L2, Radius: 0.45, K: 8, L: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCore(nil, 5); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := FromCore(ix, 0); err == nil {
		t.Error("probes = 0 accepted")
	}
	mp, err := FromCore(ix, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Probes() != 5 || mp.Core() != ix {
		t.Fatalf("FromCore wrapped T=%d core=%p, want 5/%p", mp.Probes(), mp.Core(), ix)
	}

	// A non-p-stable core must be rejected: the probing scheme perturbs
	// p-stable slot indices.
	bits := make([]vector.Binary, 8)
	for i := range bits {
		bits[i] = vector.NewBinary(32)
		bits[i].SetBit(i, true)
	}
	_, err = core.NewIndex(bits, core.Config[vector.Binary]{
		Family: lsh.NewBitSampling(32), Distance: distance.Hamming, Radius: 2, K: 4, L: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// (Type system already prevents FromCore on a binary index; the
	// runtime check matters for a dense index with non-p-stable hashers,
	// e.g. cross-polytope.)
	cp, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family: lsh.NewCrossPolytope(dataset.CorelDim, 3), Distance: distance.AngularDense,
		Radius: 0.2, K: 1, L: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCore(cp, 5); err == nil {
		t.Error("cross-polytope core accepted")
	}
}

func TestQueryProbesOverride(t *testing.T) {
	data, queries := corelData(t)
	fam := lsh.NewPStableL2(dataset.CorelDim, 0.9)
	cfg := testConfig(fam)
	ix, err := New(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alt := cfg
	alt.Probes = 30
	wide, err := New(data, alt)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		// Override up: must equal the natively-T=30 index (same seed).
		a, _ := ix.QueryLSHProbes(q, 30)
		b, _ := wide.QueryLSH(q)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("query %d: T=30 override %v != native T=30 %v", qi, a, b)
		}
		// t < 0 restores the default.
		c, _ := ix.QueryLSHProbes(q, -1)
		d, _ := ix.QueryLSH(q)
		slices.Sort(c)
		slices.Sort(d)
		if !slices.Equal(c, d) {
			t.Fatalf("query %d: t=-1 %v != default %v", qi, c, d)
		}
	}
	// Probe counts must actually change the probed set size.
	_, s0 := ix.QueryLSHProbes(queries[0], 0)
	_, s30 := ix.QueryLSHProbes(queries[0], 30)
	if s30.Collisions < s0.Collisions {
		t.Fatalf("T=30 collisions %d < T=0 collisions %d", s30.Collisions, s0.Collisions)
	}
}
