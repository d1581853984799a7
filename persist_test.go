package hybridlsh

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/lsh"
	"repro/internal/rng"
)

// persistTestData builds a small clustered dense set.
func persistTestData(n, dim int, seed uint64) []Dense {
	r := rng.New(seed)
	pts := make([]Dense, n)
	for i := range pts {
		p := make(Dense, dim)
		for j := range p {
			p[j] = float32(r.Float64())
		}
		pts[i] = p
	}
	return pts
}

func persistBinaryData(n, dim int, seed uint64) []Binary {
	r := rng.New(seed)
	pts := make([]Binary, n)
	for i := range pts {
		b := NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		pts[i] = b
	}
	return pts
}

// queryable is the part of the index API the round-trip check needs.
type queryable[P any] interface {
	Query(q P) ([]int32, QueryStats)
	N() int
}

func checkSameAnswers[P any](t *testing.T, want, got queryable[P], queries []P) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("loaded N = %d, want %d", got.N(), want.N())
	}
	for qi, q := range queries {
		wids, wstats := want.Query(q)
		gids, gstats := got.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) {
			t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
		}
		if gstats.Strategy != wstats.Strategy {
			t.Fatalf("query %d: strategy %v != %v", qi, gstats.Strategy, wstats.Strategy)
		}
	}
}

// TestPublicPersistRoundTrip drives the exported WriteTo/Read pairs for
// every plain index family.
func TestPublicPersistRoundTrip(t *testing.T) {
	const n, dim = 300, 8
	opts := []Option{WithSeed(11), WithTables(6), WithHLLRegisters(16), WithHLLThreshold(4)}

	t.Run("l2", func(t *testing.T) {
		ix, err := New(L2, persistTestData(n, dim, 1), 0.4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		var wt io.WriterTo = ix // the WriteTo methods implement io.WriterTo
		if _, err := wt.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Open(L2, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers[Dense](t, ix, loaded, persistTestData(40, dim, 2))
		// The loaded index keeps growing like the original would.
		if err := loaded.Append(persistTestData(10, dim, 3)); err != nil {
			t.Fatal(err)
		}
		if loaded.N() != n+10 {
			t.Fatalf("N after append = %d, want %d", loaded.N(), n+10)
		}
	})

	t.Run("l1", func(t *testing.T) {
		ix, err := New(L1, persistTestData(n, dim, 4), 0.9, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Open(L1, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers[Dense](t, ix, loaded, persistTestData(40, dim, 5))
	})

	t.Run("hamming", func(t *testing.T) {
		ix, err := New(Hamming, persistBinaryData(n, 64, 6), 14, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Open(Hamming, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers[Binary](t, ix, loaded, persistBinaryData(40, 64, 7))
	})

	t.Run("cosine", func(t *testing.T) {
		r := rng.New(8)
		pts := make([]Sparse, n)
		for i := range pts {
			idx := r.Sample(50, 6)
			idx32 := make([]int32, len(idx))
			val := make([]float32, len(idx))
			for k := range idx {
				idx32[k] = int32(idx[k])
				val[k] = float32(r.Float64() + 0.1)
			}
			pts[i] = NewSparseVector(50, idx32, val)
		}
		ix, err := New(Cosine, pts, 0.3, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Open(Cosine, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers[Sparse](t, ix, loaded, pts[:40])
	})

	t.Run("jaccard", func(t *testing.T) {
		ix, err := New(Jaccard, persistBinaryData(n, 64, 9), 0.4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Open(Jaccard, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers[Binary](t, ix, loaded, persistBinaryData(40, 64, 10))
	})

	t.Run("angular", func(t *testing.T) {
		pts := persistTestData(n, dim, 11)
		for i := range pts {
			for j := range pts[i] {
				pts[i][j] -= 0.5
			}
			pts[i].Normalize()
		}
		ix, err := New(Angular, pts, 0.2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Open(Angular, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameAnswers[Dense](t, ix, loaded, pts[:40])
	})
}

// TestPublicPersistWrongFamily checks the typed readers reject snapshots
// of a different family instead of misinterpreting them.
func TestPublicPersistWrongFamily(t *testing.T) {
	ix, err := New(L2, persistTestData(100, 8, 12), 0.4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(L1, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Open(L1) accepted an L2 snapshot")
	}
	if _, err := Open(Hamming, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Open(Hamming) accepted an L2 snapshot")
	}
	if _, err := OpenSharded(L2, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("OpenSharded(L2) accepted a plain snapshot")
	}
}

// TestPublicShardedPersist drives the sharded WriteTo/Read pair through
// a grow → delete → save → load → grow cycle.
func TestPublicShardedPersist(t *testing.T) {
	const n, dim = 400, 8
	ix, err := NewSharded(L2, persistTestData(n, dim, 13), 0.4, WithSeed(14), WithShards(4),
		WithTables(6), WithHLLRegisters(16), WithHLLThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	appended, err := ix.Append(persistTestData(20, dim, 15))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Delete([]int32{2, 7, appended[0]}); got != 3 {
		t.Fatalf("Delete = %d, want 3", got)
	}

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSharded(L2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != ix.N() || loaded.Deleted() != ix.Deleted() {
		t.Fatalf("loaded n=%d deleted=%d, want n=%d deleted=%d", loaded.N(), loaded.Deleted(), ix.N(), ix.Deleted())
	}
	queries := persistTestData(40, dim, 16)
	for qi, q := range queries {
		wids, _ := ix.Query(q)
		gids, _ := loaded.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) {
			t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
		}
	}
	ids, err := loaded.Append(persistTestData(5, dim, 17))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != int32(n+20) {
		t.Fatalf("append after reload starts at id %d, want %d", ids[0], n+20)
	}
}

// TestOpenHashesNothing: a snapshot carries the hash tables, so Open and
// OpenSharded rebuild none of them — the hash-evaluation counter does
// not move across either, while building and querying move it.
func TestOpenHashesNothing(t *testing.T) {
	pts := persistTestData(400, 8, 21)
	opts := []Option{WithSeed(3), WithTables(6)}
	before := lsh.HashEvaluations()
	ix, err := New(L2, pts, 0.4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(L2, pts, 0.4, append(opts, WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if lsh.HashEvaluations() == before {
		t.Fatal("building hashed nothing: the counter is not counting")
	}
	var plain, sharded bytes.Buffer
	if _, err := ix.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WriteTo(&sharded); err != nil {
		t.Fatal(err)
	}
	before = lsh.HashEvaluations()
	loaded, err := Open(L2, &plain)
	if err != nil {
		t.Fatal(err)
	}
	loadedSh, err := OpenSharded(L2, &sharded)
	if err != nil {
		t.Fatal(err)
	}
	if n := lsh.HashEvaluations() - before; n != 0 {
		t.Fatalf("Open and OpenSharded hashed %d points", n)
	}
	loaded.Query(pts[0])
	loadedSh.Query(pts[0])
	if lsh.HashEvaluations() == before {
		t.Fatal("querying the loaded indexes hashed nothing")
	}
}
