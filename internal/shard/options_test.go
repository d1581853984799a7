package shard_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/storetest"
	"repro/internal/vector"
)

// multiProbeSharded builds a 3-shard multi-probe index over loose
// clusters (σ = 0.05 at radius 0.4, so the probe count changes answers)
// and returns it with its query list.
func multiProbeSharded(t *testing.T) (*shard.Sharded[vector.Dense], []vector.Dense) {
	t.Helper()
	points, centers := clustered(300, 10, 8, 0.05, 71)
	sh, err := shard.New(points, 3, 5, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return multiprobe.New(pts, multiprobe.Config{
			Family:   lsh.NewPStableL2(8, 0.8),
			Distance: distance.L2,
			Radius:   0.4,
			K:        10,
			L:        8,
			Probes:   12,
			Seed:     seed,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh, append(centers, points[:10]...)
}

// coveringSharded builds a 3-shard covering index (r = 3) over 64-bit
// codes within 4 flips of 10 prototypes and returns it with its query
// list.
func coveringSharded(t *testing.T) (*shard.Sharded[vector.Binary], []vector.Binary) {
	t.Helper()
	r := rng.New(73)
	protos := make([]vector.Binary, 10)
	for i := range protos {
		protos[i] = vector.NewBinary(64)
		for j := 0; j < 64; j++ {
			protos[i].SetBit(j, r.Float64() < 0.5)
		}
	}
	points := make([]vector.Binary, 300)
	for i := range points {
		points[i] = protos[i%len(protos)].Clone()
		for _, b := range r.Sample(64, r.Intn(5)) {
			points[i].FlipBit(b)
		}
	}
	sh, err := shard.New(points, 3, 5, func(pts []vector.Binary, seed uint64) (core.Store[vector.Binary], error) {
		return covering.New(pts, 3, covering.Config{HLLRegisters: 32, HLLThreshold: 8, Seed: seed})
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh, append(protos, points[:10]...)
}

// TestQueryOptions runs the shared per-query option conformance case
// over sharded classic, multi-probe and covering indexes. The pinned
// hashes were recorded from Sharded.QueryProbes / QueryRadius, the
// per-mode fan-outs QueryWith replaced.
func TestQueryOptions(t *testing.T) {
	t.Run("classic", func(t *testing.T) {
		points, centers := clustered(300, 10, 8, 0.05, 71)
		sh, err := shard.New(points, 3, 5, l2Builder(8, 0.4))
		if err != nil {
			t.Fatal(err)
		}
		storetest.QueryOptions(t, sh, centers, nil)
	})
	t.Run("multiprobe", func(t *testing.T) {
		sh, queries := multiProbeSharded(t)
		storetest.QueryOptions(t, sh, queries, []storetest.PinnedOverride{
			{Opts: core.QueryOpts{Probes: core.Some(0)}, Hash: 0x913942a0219741dc},
			{Opts: core.QueryOpts{Probes: core.Some(3)}, Hash: 0x2f9b7155184abef1},
			{Opts: core.QueryOpts{Probes: core.Some(12)}, Hash: 0x5f7f7a9f19156c6d},
			{Opts: core.QueryOpts{Probes: core.Some(30)}, Hash: 0x74832cfb23026bb5},
		})
	})
	t.Run("covering", func(t *testing.T) {
		sh, queries := coveringSharded(t)
		storetest.QueryOptions(t, sh, queries, []storetest.PinnedOverride{
			{Opts: core.QueryOpts{Radius: core.Some(0)}, Hash: 0xfbed14302341b58a},
			{Opts: core.QueryOpts{Radius: core.Some(1)}, Hash: 0x26b5f37c8f64c29f},
			{Opts: core.QueryOpts{Radius: core.Some(2)}, Hash: 0x6a10eb32bcb238ef},
			{Opts: core.QueryOpts{Radius: core.Some(3)}, Hash: 0x42d81c69d4f311ff},
			{Opts: core.QueryOpts{Radius: core.Some(99)}, Hash: 0x42d81c69d4f311ff},
		})
	})
}

// TestQueryBatchWithChecksOptionsUpFront pins the batch path's error
// contract: an unsupported option fails the whole batch with the typed
// error instead of returning per-query results with the error dropped.
func TestQueryBatchWithChecksOptionsUpFront(t *testing.T) {
	sh, queries := multiProbeSharded(t)
	if _, err := sh.QueryBatchWith(queries, 2, core.QueryOpts{Radius: core.Some(1)}); !errors.Is(err, core.ErrUnsupportedOption) {
		t.Fatalf("radius on multi-probe shards: err = %v, want core.ErrUnsupportedOption", err)
	}
	batch, err := sh.QueryBatchWith(queries, 2, core.QueryOpts{Probes: core.Some(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, _, err := sh.QueryWith(q, core.QueryOpts{Probes: core.Some(3)})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sorted(batch[i].IDs), sorted(want)) {
			t.Fatalf("batch result %d misaligned", i)
		}
	}
}
