package lsh

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/vector"
)

func TestProbeKeysProperties(t *testing.T) {
	fam := NewPStableL2(8, 2)
	h := fam.NewPStableHasher(5, rng.New(7))
	q := vector.Dense{0.3, -1, 2, 0.7, 0.1, -0.5, 1.2, 0}
	for _, tn := range []int{0, 1, 5, 20, 100} {
		keys := h.ProbeKeys(q, tn, nil)
		if len(keys) == 0 || keys[0] != h.Key(q) {
			t.Fatalf("t=%d: first key is not the home bucket", tn)
		}
		if len(keys) > tn+1 {
			t.Fatalf("t=%d: %d keys returned", tn, len(keys))
		}
		seen := make(map[uint64]bool)
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("t=%d: duplicate probe key", tn)
			}
			seen[k] = true
		}
	}
}

func TestProbeKeysAreNeighborBuckets(t *testing.T) {
	// Every probe key must correspond to a ±1 perturbation of a subset of
	// the home slot indices (white-box re-derivation).
	fam := NewPStableL2(8, 2)
	h := fam.NewPStableHasher(4, rng.New(8))
	q := vector.Dense{1, 2, 3, 4, 5, 6, 7, 8}
	parts, _ := h.PartsAndResiduals(q)
	keys := h.ProbeKeys(q, 30, nil)

	// Enumerate all ±1/0 perturbations of the 4 slots (3^4 = 81) and
	// check every returned key is one of them.
	valid := make(map[uint64]bool)
	var walk func(i int, cur []int64)
	walk = func(i int, cur []int64) {
		if i == len(parts) {
			valid[KeyFromParts(cur)] = true
			return
		}
		for _, d := range []int64{-1, 0, 1} {
			next := append(append([]int64(nil), cur...), parts[i]+d)
			walk(i+1, next)
		}
	}
	walk(0, nil)
	for i, k := range keys {
		if !valid[k] {
			t.Fatalf("probe key %d is not a ±1 neighborhood bucket", i)
		}
	}
}

func TestProbeCostsNonDecreasing(t *testing.T) {
	// The enumeration must emit perturbation sets in non-decreasing score
	// order; verify via the exported sequence on a fixed query by checking
	// that recomputed scores are sorted.
	fam := NewPStableL2(6, 1.5)
	h := fam.NewPStableHasher(6, rng.New(9))
	q := vector.Dense{0.1, 0.9, 0.4, 0.2, 0.7, 0.5}
	parts, resid := h.PartsAndResiduals(q)
	keys := h.ProbeKeys(q, 40, nil)

	// Recover each key's perturbation by exhaustive match and score it.
	type cand struct {
		key   uint64
		score float64
	}
	var all []cand
	w := h.W()
	var walk func(i int, cur []int64, score float64)
	walk = func(i int, cur []int64, score float64) {
		if i == len(parts) {
			all = append(all, cand{KeyFromParts(cur), score})
			return
		}
		walk(i+1, append(append([]int64(nil), cur...), parts[i]), score)
		lo := resid[i] * w
		hi := (1 - resid[i]) * w
		walk(i+1, append(append([]int64(nil), cur...), parts[i]-1), score+lo*lo)
		walk(i+1, append(append([]int64(nil), cur...), parts[i]+1), score+hi*hi)
	}
	walk(0, nil, 0)
	scores := make(map[uint64]float64, len(all))
	for _, c := range all {
		if s, ok := scores[c.key]; !ok || c.score < s {
			scores[c.key] = c.score
		}
	}
	prev := -1.0
	for i, k := range keys[1:] { // skip home bucket (score 0)
		s, ok := scores[k]
		if !ok {
			t.Fatalf("probe %d key not in ±1 neighborhood", i+1)
		}
		if s < prev-1e-9 {
			t.Fatalf("probe %d out of order: score %v after %v", i+1, s, prev)
		}
		prev = s
	}
}
