package core_test

// The shared core.Store conformance suite, run against the plain index
// for both a dense (L2) and a binary (Hamming) instantiation. The
// multiprobe and covering packages run the same suite against their
// stores, so the contract the shard layer builds on is pinned in one
// place (internal/storetest) for every index kind.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/storetest"
	"repro/internal/vector"
)

// clusteredDense generates n points around 12 random centers in
// [0,1)^8 (σ = 0.05), so radius-0.3 queries drawn from the data have
// non-trivial neighbor sets.
func clusteredDense(n int, seed uint64) []vector.Dense {
	const dim, nc = 8, 12
	r := rng.New(seed)
	centers := make([]vector.Dense, nc)
	for i := range centers {
		c := make(vector.Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	pts := make([]vector.Dense, n)
	for i := range pts {
		c := centers[i%nc]
		p := make(vector.Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.05)
		}
		pts[i] = p
	}
	return pts
}

// clusteredBinary generates n 64-bit codes as 12 random prototypes with
// up to 3 bits flipped each, so radius-6 Hamming queries have neighbors.
func clusteredBinary(n int, seed uint64) []vector.Binary {
	const dim, nc = 64, 12
	r := rng.New(seed)
	protos := make([]vector.Binary, nc)
	for i := range protos {
		b := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := protos[i%nc].Clone()
		for f := 0; f < 3; f++ {
			b.FlipBit(r.Intn(dim))
		}
		pts[i] = b
	}
	return pts
}

// denseIndex builds the L2 conformance index over the given store
// layout (nil = the generic default).
func denseIndex(t *testing.T, pts []vector.Dense, seed uint64, store pointstore.Builder[vector.Dense]) *core.Index[vector.Dense] {
	t.Helper()
	ix, err := core.NewIndex(pts, core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(8, 0.6),
		Distance:     distance.L2,
		Radius:       0.3,
		K:            6,
		L:            8,
		HLLRegisters: 16,
		HLLThreshold: 4,
		Seed:         seed,
		Store:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestStoreContractL2(t *testing.T) {
	storetest.Run(t, storetest.Harness[vector.Dense]{
		Name: "core-l2",
		New: func(t *testing.T, pts []vector.Dense, seed uint64) *core.Index[vector.Dense] {
			return denseIndex(t, pts, seed, nil)
		},
		// Generic exact store vs SQ8-quantized flat store: the
		// pre-filter + exact-recheck pipeline must answer id-for-id
		// what the plain exact loop answers.
		NewQuant: func(t *testing.T, pts []vector.Dense, seed uint64) *core.Index[vector.Dense] {
			return denseIndex(t, pts, seed, pointstore.DenseL2Builder(pointstore.ModeSQ8))
		},
		Data: clusteredDense,
	})
}

// binaryIndex builds the Hamming conformance index over the given
// store layout (nil = the generic default).
func binaryIndex(t *testing.T, pts []vector.Binary, seed uint64, store pointstore.Builder[vector.Binary]) *core.Index[vector.Binary] {
	t.Helper()
	ix, err := core.NewIndex(pts, core.Config[vector.Binary]{
		Family:       lsh.NewBitSampling(64),
		Distance:     distance.Hamming,
		Radius:       6,
		K:            8,
		L:            8,
		HLLRegisters: 16,
		HLLThreshold: 4,
		Seed:         seed,
		Store:        store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestStoreContractHamming(t *testing.T) {
	storetest.Run(t, storetest.Harness[vector.Binary]{
		Name: "core-hamming",
		New: func(t *testing.T, pts []vector.Binary, seed uint64) *core.Index[vector.Binary] {
			return binaryIndex(t, pts, seed, nil)
		},
		// Binary has no quantized encoding; the alternative build pins
		// the generic-vs-flat-words layout equivalence instead.
		NewQuant: func(t *testing.T, pts []vector.Binary, seed uint64) *core.Index[vector.Binary] {
			return binaryIndex(t, pts, seed, pointstore.BinaryHammingBuilder())
		},
		Data: clusteredBinary,
	})
}
