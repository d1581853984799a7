package core

import (
	"slices"
	"testing"

	"repro/internal/distance"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/vector"
)

// compactRemap mirrors Compact's documented renumbering: a survivor's new
// id is its rank among survivors.
func compactRemap(dead []bool) []int32 {
	remap := make([]int32, len(dead))
	next := int32(0)
	for i, d := range dead {
		if d {
			remap[i] = -1
			continue
		}
		remap[i] = next
		next++
	}
	return remap
}

// filterRemap drops dead ids from a pre-compaction answer and renames the
// survivors into the compacted id space, sorted.
func filterRemap(ids []int32, remap []int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		if nid := remap[id]; nid >= 0 {
			out = append(out, nid)
		}
	}
	slices.Sort(out)
	return out
}

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

func markDead(n int, frac float64, seed uint64) []bool {
	r := rng.New(seed)
	dead := make([]bool, n)
	for i := range dead {
		if r.Float64() < frac {
			dead[i] = true
		}
	}
	return dead
}

// checkCompactedStructure asserts the acceptance criterion on the index
// internals: every bucket id is a live id, no bucket is empty, and every
// sketch is exactly a fresh HLL over the bucket's (live) ids — i.e. the
// cost model's three inputs count zero dead points.
func checkCompactedStructure[P any](t *testing.T, ix *Index[P], live int) {
	t.Helper()
	if ix.N() != live {
		t.Fatalf("compacted N = %d, want %d", ix.N(), live)
	}
	params := ix.Tables().Params()
	for j := 0; j < ix.Tables().L(); j++ {
		for key, b := range ix.Tables().Table(j).Buckets {
			if len(b.IDs) == 0 {
				t.Fatalf("table %d bucket %x is empty after compaction", j, key)
			}
			for _, id := range b.IDs {
				if id < 0 || int(id) >= live {
					t.Fatalf("table %d bucket %x holds id %d outside live range [0,%d)", j, key, id, live)
				}
			}
			if len(b.IDs) >= params.HLLThreshold {
				if b.Sketch == nil {
					t.Fatalf("table %d bucket %x has %d ids but no sketch", j, key, len(b.IDs))
				}
				want := hll.New(params.HLLRegisters)
				for _, id := range b.IDs {
					want.AddID(uint64(id))
				}
				if !slices.Equal(b.Sketch, want.Registers()) {
					t.Fatalf("table %d bucket %x sketch was not rebuilt from live ids", j, key)
				}
			} else if b.Sketch != nil {
				t.Fatalf("table %d bucket %x has %d ids (< threshold %d) but a sketch", j, key, len(b.IDs), params.HLLThreshold)
			}
		}
	}
}

// TestCompactEquivalenceHamming is the core-level equivalence property:
// on both forced strategies, the compacted index's answers are id-for-id
// the original index's answers minus the dead points (renumbered), and
// the compacted decision inputs count zero dead points.
func TestCompactEquivalenceHamming(t *testing.T) {
	w := makeWorkload(2000, 200, 64, 2, 1)
	ix := buildIndex(t, w, 5)
	dead := markDead(len(w.points), 0.3, 42)
	remap := compactRemap(dead)
	live := 0
	for _, d := range dead {
		if !d {
			live++
		}
	}

	cix, err := ix.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	checkCompactedStructure(t, cix, live)

	queries := append([]vector.Binary{w.center}, w.points[:25]...)
	for qi, q := range queries {
		preLSH, _ := ix.QueryLSH(q)
		postLSH, _ := cix.QueryLSH(q)
		if want := filterRemap(preLSH, remap); !slices.Equal(sortedIDs(postLSH), want) {
			t.Fatalf("query %d: compacted LSH answers = %v, want pre minus dead = %v", qi, sortedIDs(postLSH), want)
		}
		preLin, _ := ix.QueryLinear(q)
		postLin, _ := cix.QueryLinear(q)
		if want := filterRemap(preLin, remap); !slices.Equal(sortedIDs(postLin), want) {
			t.Fatalf("query %d: compacted linear answers = %v, want pre minus dead = %v", qi, sortedIDs(postLin), want)
		}
		// The hybrid decision on the compacted index must cost the scan
		// at the live point count.
		_, stats := cix.Query(q)
		if want := cix.Cost().LinearCost(live); stats.LinearCost != want {
			t.Fatalf("query %d: compacted LinearCost = %v, want %v (live n = %d)", qi, stats.LinearCost, want, live)
		}
	}

	// The original index must be untouched.
	if ix.N() != len(w.points) {
		t.Fatalf("original N changed to %d", ix.N())
	}
}

// TestCompactEquivalenceL2 runs the same property on the p-stable L2
// family.
func TestCompactEquivalenceL2(t *testing.T) {
	const n, dim, radius = 1500, 12, 0.4
	r := rng.New(3)
	points := make([]vector.Dense, n)
	for i := range points {
		p := make(vector.Dense, dim)
		base := float32(r.Float64())
		for d := range p {
			p[d] = base + float32(r.Normal()*0.05)
		}
		points[i] = p
	}
	ix, err := NewIndex(points, Config[vector.Dense]{
		Family:   lsh.NewPStableL2(dim, 2*radius),
		Distance: distance.L2,
		Radius:   radius,
		K:        7,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dead := markDead(n, 0.25, 17)
	remap := compactRemap(dead)
	live := 0
	for _, d := range dead {
		if !d {
			live++
		}
	}
	cix, err := ix.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	checkCompactedStructure(t, cix, live)
	for qi, q := range points[:40] {
		pre, _ := ix.QueryLSH(q)
		post, _ := cix.QueryLSH(q)
		if want := filterRemap(pre, remap); !slices.Equal(sortedIDs(post), want) {
			t.Fatalf("query %d: compacted answers = %v, want %v", qi, sortedIDs(post), want)
		}
	}
}

func TestCompactNoDeadReturnsReceiver(t *testing.T) {
	w := makeWorkload(300, 30, 64, 2, 5)
	ix := buildIndex(t, w, 5)
	cix, err := ix.Compact(make([]bool, ix.N()))
	if err != nil {
		t.Fatal(err)
	}
	if cix != ix {
		t.Fatal("Compact with no dead points should return the receiver")
	}
}

func TestCompactValidation(t *testing.T) {
	w := makeWorkload(100, 10, 64, 2, 6)
	ix := buildIndex(t, w, 5)
	if _, err := ix.Compact(make([]bool, ix.N()-1)); err == nil {
		t.Fatal("Compact accepted a short dead slice")
	}
}

// TestCompactAll removes every point: the compacted index must stay
// queryable (and always choose the trivial linear scan over nothing).
func TestCompactAllPoints(t *testing.T) {
	w := makeWorkload(200, 20, 64, 2, 8)
	ix := buildIndex(t, w, 5)
	dead := make([]bool, ix.N())
	for i := range dead {
		dead[i] = true
	}
	cix, err := ix.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	if cix.N() != 0 {
		t.Fatalf("N = %d after compacting everything", cix.N())
	}
	ids, _ := cix.Query(w.center)
	if len(ids) != 0 {
		t.Fatalf("empty index answered %v", ids)
	}
}
