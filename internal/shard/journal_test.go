package shard_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/vector"
)

// memJournal records journal calls as replayable mutation records.
type memJournal struct {
	mu      sync.Mutex
	records []journalRecord
}

type journalRecord struct {
	kind   string // "append", "delete", "compact"
	shard  int
	base   int32
	points []vector.Dense
	ids    []int32
}

func (m *memJournal) JournalAppend(shard int, base int32, points []vector.Dense) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, journalRecord{kind: "append", shard: shard, base: base,
		points: append([]vector.Dense(nil), points...)})
}

func (m *memJournal) JournalDelete(ids []int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, journalRecord{kind: "delete", ids: append([]int32(nil), ids...)})
}

func (m *memJournal) JournalCompact(shard int, removed []int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, journalRecord{kind: "compact", shard: shard,
		ids: append([]int32(nil), removed...)})
}

// SyncJournal is a no-op: the records live in memory.
func (m *memJournal) SyncJournal() error { return nil }

// replay applies every record to a replica via the Apply* methods.
func (m *memJournal) replay(t *testing.T, sh *shard.Sharded[vector.Dense]) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range m.records {
		switch r.kind {
		case "append":
			if err := sh.ApplyAppend(r.shard, r.base, r.points); err != nil {
				t.Fatalf("record %d: ApplyAppend: %v", i, err)
			}
		case "delete":
			sh.Delete(r.ids)
		case "compact":
			if _, err := sh.CompactExact(r.shard, r.ids); err != nil {
				t.Fatalf("record %d: CompactExact: %v", i, err)
			}
		}
	}
}

// TestJournalReplayConverges drives a writer through appends, deletes
// and compactions and replays the journal onto a replica built from the
// same seed points; every query must answer id-identically.
func TestJournalReplayConverges(t *testing.T) {
	const (
		n, nc, dim = 600, 20, 8
		radius     = 0.4
		shards     = 3
	)
	points, queries := clustered(n+200, nc, dim, 0.01, 21)
	seedPts, extra := points[:n], points[n:]
	build := l2Builder(dim, radius)

	writer, err := shard.New(seedPts, shards, 77, build)
	if err != nil {
		t.Fatal(err)
	}
	writer.SetAutoCompact(1) // explicit compactions only, for a deterministic script
	j := &memJournal{}
	writer.SetJournal(j)

	replica, err := shard.New(seedPts, shards, 77, build)
	if err != nil {
		t.Fatal(err)
	}
	replica.SetAutoCompact(1)

	// Interleave mutations on the writer.
	if _, err := writer.Append(extra[:80]); err != nil {
		t.Fatal(err)
	}
	writer.Delete([]int32{5, 9, 613, 2, 5 /* dup */, 9999 /* unknown */})
	if _, err := writer.Compact(0); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(extra[80:150]); err != nil {
		t.Fatal(err)
	}
	writer.Delete([]int32{640, 641, 100, 101, 102})
	for s := 0; s < shards; s++ {
		if _, err := writer.Compact(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writer.Append(extra[150:]); err != nil {
		t.Fatal(err)
	}

	j.replay(t, replica)

	if got, want := replica.N(), writer.N(); got != want {
		t.Fatalf("replica N = %d, writer N = %d", got, want)
	}
	if got, want := replica.Deleted(), writer.Deleted(); got != want {
		t.Fatalf("replica Deleted = %d, writer Deleted = %d", got, want)
	}
	if got, want := replica.ShardSizes(), writer.ShardSizes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica shard sizes %v, writer %v", got, want)
	}
	for qi, q := range queries {
		w, _ := writer.Query(q)
		r, _ := replica.Query(q)
		if !slices.Equal(sorted(w), sorted(r)) {
			t.Fatalf("query %d: writer %v, replica %v", qi, sorted(w), sorted(r))
		}
	}
}

// TestApplyAppendIdempotent proves the snapshot/delta overlap rule: a
// batch entirely below the high-water mark is skipped, a gapped batch
// is an error, and a replay of the full journal after partial
// absorption converges.
func TestApplyAppendIdempotent(t *testing.T) {
	points, _ := clustered(300, 10, 6, 0.01, 3)
	build := l2Builder(6, 0.4)
	sh, err := shard.New(points[:200], 2, 5, build)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh batch at the mark: applied.
	if err := sh.ApplyAppend(1, 200, points[200:250]); err != nil {
		t.Fatal(err)
	}
	if got := sh.N(); got != 250 {
		t.Fatalf("N = %d after apply, want 250", got)
	}
	// Same batch again: skipped, not duplicated.
	if err := sh.ApplyAppend(1, 200, points[200:250]); err != nil {
		t.Fatal(err)
	}
	if got := sh.N(); got != 250 {
		t.Fatalf("N = %d after idempotent re-apply, want 250", got)
	}
	// A gap: frames lost, must error.
	if err := sh.ApplyAppend(0, 260, points[260:280]); err == nil {
		t.Fatal("gapped ApplyAppend succeeded")
	}
	// Partial overlap (base below the mark, end above): must error, not
	// silently re-append the tail.
	if err := sh.ApplyAppend(0, 240, points[240:280]); err == nil {
		t.Fatal("partially overlapping ApplyAppend succeeded")
	}
	// Bad shard index.
	if err := sh.ApplyAppend(9, 250, points[250:260]); err == nil {
		t.Fatal("ApplyAppend to nonexistent shard succeeded")
	}
}

// TestCompactExactSweepsOnlyGivenIDs checks that the replayed sweep is
// the journaled set, not the replica's full tombstone set, and that
// replaying it twice (or against ids never tombstoned) is harmless.
func TestCompactExactSweepsOnlyGivenIDs(t *testing.T) {
	points, queries := clustered(400, 10, 6, 0.01, 9)
	build := l2Builder(6, 0.4)
	sh, err := shard.New(points, 2, 5, build)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetAutoCompact(1)
	sh.Delete([]int32{0, 2, 4, 6})
	// Sweep only a subset; ids 4 and 6 stay tombstoned-in-buckets.
	if _, err := sh.CompactExact(0, []int32{0, 2}); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.DeadTotal != 2 {
		t.Fatalf("DeadTotal = %d after partial sweep, want 2", st.DeadTotal)
	}
	// Idempotent re-apply, unknown ids, live ids: all no-ops.
	for _, ids := range [][]int32{{0, 2}, {9999}, {1, 3}} {
		if n, err := sh.CompactExact(0, ids); err != nil || n != 0 {
			t.Fatalf("CompactExact(%v) = (%d, %v), want no-op", ids, n, err)
		}
	}
	if got := sh.Stats().DeadTotal; got != 2 {
		t.Fatalf("DeadTotal = %d after no-op sweeps, want 2", got)
	}
	// Answers still exclude every tombstone.
	for _, q := range queries {
		ids, _ := sh.Query(q)
		for _, id := range ids {
			if id == 0 || id == 2 || id == 4 || id == 6 {
				t.Fatalf("tombstoned id %d reported", id)
			}
		}
	}
}
