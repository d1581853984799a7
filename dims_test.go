package hybridlsh

import (
	"fmt"
	"testing"
)

// noPanic runs f and turns a panic into a test failure, so a check
// reports instead of killing the test binary (a panic on another
// goroutine still would).
func noPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", what, r)
		}
	}()
	f()
}

// panics reports whether f panics on the calling goroutine.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// checkBadBuild requires New and NewSharded under m to refuse ragged
// and zero-dimension point sets with an error.
func checkBadBuild[P any](t *testing.T, m Metric[P], r float64, ragged, zero []P, opts ...Option) {
	t.Helper()
	for name, pts := range map[string][]P{"ragged": ragged, "zero-dim": zero} {
		noPanic(t, fmt.Sprintf("New(%s) on %s points", m, name), func() {
			if _, err := New(m, pts, r, opts...); err == nil {
				t.Errorf("New(%s) accepted %s points", m, name)
			}
			if _, err := NewSharded(m, pts, r, append(opts, WithShards(2))...); err == nil {
				t.Errorf("NewSharded(%s) accepted %s points", m, name)
			}
		})
	}
}

func TestBuildRejectsBadDimensions(t *testing.T) {
	ragged := []Dense{{0, 1}, {0, 1, 2}, {1, 0}}
	zero := []Dense{{}, {}}
	bits := []Binary{NewBinaryVector(64), NewBinaryVector(128), NewBinaryVector(64)}
	noBits := []Binary{NewBinaryVector(0), NewBinaryVector(0)}
	sparse := []Sparse{
		NewSparseVector(8, []int32{1}, []float32{1}),
		NewSparseVector(9, []int32{2}, []float32{1}),
	}
	noSparse := []Sparse{NewSparseVector(0, nil, nil), NewSparseVector(0, nil, nil)}

	checkBadBuild(t, L2, 0.5, ragged, zero)
	checkBadBuild(t, L2, 0.5, ragged, zero, WithProbes(4))
	checkBadBuild(t, L1, 0.5, ragged, zero)
	checkBadBuild(t, Angular, 0.2, ragged, zero)
	checkBadBuild(t, Cosine, 0.2, sparse, noSparse)
	checkBadBuild(t, Hamming, 8, bits, noBits)
	checkBadBuild(t, Hamming, 3, bits, noBits, WithCovering())
	checkBadBuild(t, Jaccard, 0.3, bits, noBits)
}

// checkWrongQuery requires every query method of a plain and a sharded
// index under m to refuse a query of the wrong dimension: the methods
// with an error result return one, the others panic on the caller's
// goroutine.
func checkWrongQuery[P any](t *testing.T, m Metric[P], r float64, points []P, bad P, opts ...Option) {
	t.Helper()
	ix, err := New(m, points, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(m, points, r, append(opts, WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	noPanic(t, fmt.Sprintf("a wrong-dimension %s query", m), func() {
		if _, _, err := ix.QueryWith(bad, QueryOpts{}); err == nil {
			t.Errorf("%s: QueryWith accepted a query of the wrong dimension", m)
		}
		if _, _, err := ix.QueryLSHWith(bad, QueryOpts{}); err == nil {
			t.Errorf("%s: QueryLSHWith accepted a query of the wrong dimension", m)
		}
		if _, _, err := sh.QueryWith(bad, QueryOpts{}); err == nil {
			t.Errorf("%s: sharded QueryWith accepted a query of the wrong dimension", m)
		}
		if _, err := sh.QueryBatchWith([]P{points[0], bad}, 2, QueryOpts{}); err == nil {
			t.Errorf("%s: sharded QueryBatchWith accepted a query of the wrong dimension", m)
		}
	})
	for name, f := range map[string]func(){
		"Query":              func() { ix.Query(bad) },
		"QueryLinear":        func() { ix.QueryLinear(bad) },
		"QueryBatch":         func() { ix.QueryBatch([]P{points[0], bad}, 2) },
		"sharded Query":      func() { sh.Query(bad) },
		"sharded QueryBatch": func() { sh.QueryBatch([]P{points[0], bad}, 2) },
	} {
		if !panics(f) {
			t.Errorf("%s: %s answered a query of the wrong dimension", m, name)
		}
	}
	// The index is unharmed.
	if ids, _ := sh.Query(points[0]); len(ids) == 0 {
		t.Errorf("%s: a point no longer finds itself", m)
	}
}

func TestQueryRejectsWrongDimension(t *testing.T) {
	dense := pinDense(60, 8, 1, false)
	unit := pinDense(60, 8, 2, true)
	bits := pinBinary(60, 64, 3, 0.5, 2)
	sparse := pinSparse(60, 50, 5)

	checkWrongQuery(t, L2, 0.2, dense, make(Dense, 2))
	checkWrongQuery(t, L2, 0.2, dense, make(Dense, 2), WithProbes(4))
	checkWrongQuery(t, L1, 0.5, dense, make(Dense, 9))
	checkWrongQuery(t, Angular, 0.05, unit, make(Dense, 3))
	checkWrongQuery(t, Cosine, 0.01, sparse, NewSparseVector(70, []int32{60}, []float32{1}))
	checkWrongQuery(t, Hamming, 8, bits, NewBinaryVector(128))
	checkWrongQuery(t, Hamming, 3, bits, NewBinaryVector(32), WithCovering())
	checkWrongQuery(t, Jaccard, 0.3, bits, NewBinaryVector(128))
}
