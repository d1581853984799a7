package hybridlsh

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// checkRejectedAppend appends the batch [good, bad], where bad has the
// wrong dimension, and requires the index to refuse it with an error
// rather than a panic and to stay exactly as it was: same N, and the same
// hybrid and forced-LSH answers to queries (which should include good, so
// a half-applied batch shows up as a colliding id past N).
func checkRejectedAppend[P any](t *testing.T, ix *Index[P], err error, good, bad P, queries []P) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	answers := func() [][]int32 {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("query panicked: %v", r)
			}
		}()
		var out [][]int32
		for _, q := range queries {
			hyb, _ := ix.Query(q)
			forced, _ := ix.QueryLSH(q)
			out = append(out, sortedIDs(hyb), sortedIDs(forced))
		}
		return out
	}
	n, before := ix.N(), answers()
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Append panicked: %v", r)
			}
		}()
		if err := ix.Append([]P{good, bad}); err == nil {
			t.Fatal("Append accepted a point of the wrong dimension")
		}
	}()
	if ix.N() != n {
		t.Fatalf("N = %d after the rejected Append, want %d", ix.N(), n)
	}
	if after := answers(); !slices.EqualFunc(before, after, slices.Equal) {
		t.Fatal("answers changed after the rejected Append")
	}
}

func TestRejectedAppendLeavesIndexIntact(t *testing.T) {
	dense := persistTestData(200, 8, 1)
	bits := persistBinaryData(200, 64, 2)
	r := rng.New(3)
	sparse := make([]Sparse, 200)
	for i := range sparse {
		idx := []int32{int32(r.Intn(32)), int32(32 + r.Intn(32))}
		sparse[i] = NewSparseVector(64, idx, []float32{1, float32(r.Float64())})
	}
	unit := make([]Dense, len(dense))
	for i, p := range dense {
		unit[i] = p.Clone()
		unit[i].Normalize()
	}
	shortDense, wideBits := make(Dense, 3), NewBinaryVector(128)
	shortSparse := NewSparseVector(8, []int32{1}, []float32{1})

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"l2", func(t *testing.T) {
			ix, err := New(L2, dense, 0.5, WithSeed(4))
			checkRejectedAppend(t, ix, err, dense[0], shortDense, dense[:10])
		}},
		{"l1", func(t *testing.T) {
			ix, err := New(L1, dense, 1.5, WithSeed(4))
			checkRejectedAppend(t, ix, err, dense[0], shortDense, dense[:10])
		}},
		{"angular", func(t *testing.T) {
			ix, err := New(Angular, unit, 0.3, WithSeed(4))
			checkRejectedAppend(t, ix, err, unit[0], shortDense, unit[:10])
		}},
		{"multiprobe-l2", func(t *testing.T) {
			ix, err := New(L2, dense, 0.5, WithSeed(4), WithProbes(10))
			checkRejectedAppend(t, ix, err, dense[0], shortDense, dense[:10])
		}},
		{"hamming", func(t *testing.T) {
			ix, err := New(Hamming, bits, 16, WithSeed(4))
			checkRejectedAppend(t, ix, err, bits[0], wideBits, bits[:10])
		}},
		{"jaccard", func(t *testing.T) {
			ix, err := New(Jaccard, bits, 0.5, WithSeed(4))
			checkRejectedAppend(t, ix, err, bits[0], wideBits, bits[:10])
		}},
		{"covering-hamming", func(t *testing.T) {
			ix, err := New(Hamming, bits, 3, WithCovering(), WithSeed(4))
			checkRejectedAppend(t, ix, err, bits[0], wideBits, bits[:10])
		}},
		{"cosine", func(t *testing.T) {
			ix, err := New(Cosine, sparse, 0.3, WithSeed(4))
			checkRejectedAppend(t, ix, err, sparse[0], shortSparse, sparse[:10])
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
