package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/lsh"
	"repro/internal/rng"
)

// firstOccurrence is the S2 reference: the distinct ids of buckets in the
// order they first appear, kept in a map.
func firstOccurrence(buckets []lsh.Bucket) []int32 {
	seen := map[int32]bool{}
	out := []int32{}
	for _, b := range buckets {
		for _, id := range b.IDs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// randomBuckets draws up to 40 buckets of ids in [0, n): some empty,
// some sorted runs as the tables hold them, some in random order, all
// overlapping heavily.
func randomBuckets(r *rng.Rand, n int) []lsh.Bucket {
	bs := make([]lsh.Bucket, r.Intn(41))
	for i := range bs {
		ids := make([]int32, r.Intn(3*n/2))
		for j := range ids {
			ids[j] = int32(r.Intn(n))
		}
		switch r.Intn(3) {
		case 0:
			ids = ids[:0]
		case 1:
			slices.Sort(ids)
			ids = slices.Compact(ids)
		}
		bs[i] = lsh.Bucket{IDs: ids}
	}
	return bs
}

// TestCollectMatchesFirstOccurrence holds the S2 walk to the map-based
// reference over random overlapping buckets, on one pooled state reused
// query after query and across a generation wrap.
func TestCollectMatchesFirstOccurrence(t *testing.T) {
	const n = 300
	r := rng.New(35)
	st := &queryState{visited: make([]uint32, n)}
	check := func(round int) {
		t.Helper()
		bs := randomBuckets(r, n)
		want := firstOccurrence(bs)
		if got := st.collect(bs); !slices.Equal(got, want) {
			t.Fatalf("round %d (gen %d): collect = %v, want %v", round, st.gen, got, want)
		}
	}
	for round := range 200 {
		check(round)
	}
	// Stamps from the generations before the wrap, among them the ones
	// the walk reuses after it: only the wrap's clear keeps them out.
	st.gen = math.MaxUint32
	for i := range st.visited {
		st.visited[i] = st.gen - uint32(r.Intn(6))
		if r.Intn(2) == 0 {
			st.visited[i] = uint32(r.Intn(6))
		}
	}
	for round := range 10 {
		check(200 + round)
	}
	if st.gen != 10 {
		t.Fatalf("gen = %d after the wrap, want 10", st.gen)
	}
}

// branchyDedup is the S2 walk as it was before dedup: a visited test and
// a conditional append per id. BenchmarkKernelDedup prices it beside
// dedup.
func branchyDedup(visited []uint32, gen uint32, ids, cand []int32) []int32 {
	for _, id := range ids {
		if visited[id] == gen {
			continue
		}
		visited[id] = gen
		cand = append(cand, id)
	}
	return cand
}

// BenchmarkKernelDedup times the S2 walk over 50 sorted buckets of 800
// ids drawn from a 4 000-id neighbourhood of a 30 000-point shard — the
// heavy overlap of a dense query's bucket set — in ns per collision.
func BenchmarkKernelDedup(b *testing.B) {
	const n, tables, size, hood = 30000, 50, 800, 4000
	r := rng.New(7)
	buckets := make([][]int32, tables)
	base := r.Intn(n - hood)
	for i := range buckets {
		ids := make([]int32, size)
		for j := range ids {
			ids[j] = int32(base + r.Intn(hood))
		}
		slices.Sort(ids)
		buckets[i] = slices.Compact(ids)
	}
	collisions := 0
	for _, ids := range buckets {
		collisions += len(ids)
	}
	for _, bc := range []struct {
		name string
		walk func(visited []uint32, gen uint32, ids, cand []int32) []int32
	}{{"branchy", branchyDedup}, {"dedup", dedup}} {
		b.Run(bc.name, func(b *testing.B) {
			visited := make([]uint32, n)
			var cand []int32
			gen := uint32(0)
			for b.Loop() {
				gen++
				cand = cand[:0]
				for _, ids := range buckets {
					cand = bc.walk(visited, gen, ids, cand)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*collisions), "ns/collision")
		})
	}
}
