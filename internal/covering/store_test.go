package covering

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storetest"
	"repro/internal/vector"
)

// The shard.Builder / compaction contracts — Append, CompactStore,
// DecideStrategy, QueryBatch, the per-query radius narrowing — are pinned
// by the shared conformance suite; this file adds only the
// covering-specific surface.

func TestStoreContract(t *testing.T) {
	storetest.Run(t, storetest.Harness[vector.Binary]{
		Name: "covering-hamming",
		New: func(t *testing.T, pts []vector.Binary, seed uint64) core.Store[vector.Binary] {
			ix, err := New(pts, 3, Config{HLLRegisters: 32, HLLThreshold: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		Data: func(n int, seed uint64) []vector.Binary {
			pts, _ := randomPoints(n, n/3, 64, 3, seed)
			return pts
		},
		// The narrowed reports were exact at the parent (checked against
		// ground truth by the test this table replaced); 99 pins the
		// clamp to the built radius.
		Pinned: []storetest.PinnedOverride{
			{Opts: core.QueryOpts{Radius: core.Some(0)}, Hash: 0x931ee7d61ca48aae},
			{Opts: core.QueryOpts{Radius: core.Some(1)}, Hash: 0xeac92babe1c2239c},
			{Opts: core.QueryOpts{Radius: core.Some(2)}, Hash: 0xf11a5f567eec713},
			{Opts: core.QueryOpts{Radius: core.Some(3)}, Hash: 0x21a7ac9c5a51b5f3},
			{Opts: core.QueryOpts{Radius: core.Some(99)}, Hash: 0x21a7ac9c5a51b5f3},
		},
		// NewQuant stays nil: the covering index is hard-wired to the
		// flat binary store (no quantized encoding exists for Hamming),
		// and the flat-vs-generic layout equivalence is pinned by the
		// core-hamming harness.
	})
}

func TestAppendKeepsGuarantee(t *testing.T) {
	pts, center := randomPoints(600, 250, 64, 4, 21)
	half := len(pts) / 2
	ix, err := New(pts[:half:half], 4, Config{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(pts[half:]); err != nil {
		t.Fatal(err)
	}
	// Appended points are covered by the same drawn φ: zero false
	// negatives over the grown set.
	out, _ := ix.QueryLSH(center)
	truth := core.GroundTruth(pts, func(a, b vector.Binary) float64 {
		return float64(vector.Hamming(a, b))
	}, center, 4)
	if rec := core.Recall(out, truth); rec != 1 {
		t.Fatalf("recall %v after append, want 1", rec)
	}
	// Dimension mismatches are rejected.
	if err := ix.Append([]vector.Binary{vector.NewBinary(32)}); err == nil {
		t.Fatal("Append accepted a 32-bit point into a 64-bit index")
	}
}
