package hybridlsh

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

func TestMultiProbeL2Basics(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(800, 20, 10, 31)

	ix, err := New(L2, points, radius, WithSeed(7), WithProbes(10))
	if err != nil {
		t.Fatal(err)
	}
	if ix.L() != 10 {
		t.Fatalf("default L = %d, want 10 (the multi-probe regime)", ix.L())
	}
	if ix.Defaults() != (QueryOpts{Probes: Some(10)}) {
		t.Fatalf("mode = %+v, want 10 probes", ix.Defaults())
	}
	for qi, q := range queries {
		truth := GroundTruth(L2, points, q, radius)
		ids, st := ix.Query(q)
		if !slices.Equal(sortedIDs(ids), sortedIDs(truth)) {
			t.Errorf("query %d: multi-probe hybrid = %v, truth = %v", qi, sortedIDs(ids), sortedIDs(truth))
		}
		if st.Results != len(ids) {
			t.Errorf("query %d: stats.Results = %d, ids = %d", qi, st.Results, len(ids))
		}
		lin, _ := ix.QueryLinear(q)
		if !slices.Equal(sortedIDs(lin), sortedIDs(truth)) {
			t.Errorf("query %d: linear path inexact", qi)
		}
		strat, _ := ix.DecideStrategy(q)
		_, qs := ix.Query(q)
		if strat != qs.Strategy {
			t.Errorf("query %d: DecideStrategy %v, Query used %v", qi, strat, qs.Strategy)
		}
	}
	// Batch answers must align with the single-query path.
	for i, r := range ix.QueryBatch(queries, 4) {
		ids, _ := ix.Query(queries[i])
		if !slices.Equal(sortedIDs(r.IDs), sortedIDs(ids)) {
			t.Fatalf("batch query %d disagrees with Query", i)
		}
	}
}

func TestMultiProbeMoreProbesNeverHurtRecall(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(600, 15, 8, 5)
	ix, err := New(L2, points, radius, WithSeed(3), WithTables(4), WithProbes(2))
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		few, _, err := ix.QueryLSHWith(q, QueryOpts{Probes: Some(0)})
		if err != nil {
			t.Fatal(err)
		}
		many, _, err := ix.QueryLSHWith(q, QueryOpts{Probes: Some(40)})
		if err != nil {
			t.Fatal(err)
		}
		fewSet := sortedIDs(few)
		for _, id := range fewSet {
			if _, ok := slices.BinarySearch(sortedIDs(many), id); !ok {
				t.Fatalf("query %d: id %d found at T=0 but lost at T=40", qi, id)
			}
		}
	}
}

func TestMultiProbeValidation(t *testing.T) {
	points, _ := tightClusters(50, 5, 6, 9)
	if _, err := New(L2, nil, 0.3, WithProbes(10)); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := New(L2, points, 0, WithProbes(10)); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewSharded(L2, nil, 0.3, WithProbes(10)); err == nil {
		t.Error("sharded: empty point set accepted")
	}
	if _, err := NewSharded(L2, points, -1, WithProbes(10)); err == nil {
		t.Error("sharded: negative radius accepted")
	}
	// Multi-probe is an L2 mode only.
	if _, err := New(L1, points, 0.3, WithProbes(10)); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("WithProbes on l1: err = %v, want ErrUnsupportedOption", err)
	}
	if _, err := NewSharded(Hamming, binaryClusters(50, 5, 64, 1, 9), 3, WithProbes(10)); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("WithProbes on sharded hamming: err = %v, want ErrUnsupportedOption", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("applying WithProbes(0) did not panic")
		}
	}()
	New(L2, points, 0.3, WithProbes(0))
}

func TestShardedMultiProbeMatchesUnsharded(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(1000, 25, 10, 17)

	flat, err := New(L2, points, radius, WithSeed(4), WithProbes(10))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(L2, points, radius, WithSeed(4), WithShards(5), WithProbes(12))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Defaults().Probes.N != 12 {
		t.Fatalf("probes = %d, want 12", sh.Defaults().Probes.N)
	}
	for qi, q := range queries {
		truth := GroundTruth(L2, points, q, radius)
		flatIDs, _ := flat.Query(q)
		shIDs, st := sh.Query(q)
		if !slices.Equal(sortedIDs(flatIDs), sortedIDs(truth)) {
			t.Fatalf("query %d: unsharded multi-probe missed ground truth; pick an easier instance", qi)
		}
		if !slices.Equal(sortedIDs(shIDs), sortedIDs(truth)) {
			t.Errorf("query %d: sharded = %v, truth = %v", qi, sortedIDs(shIDs), sortedIDs(truth))
		}
		if st.LSHShards+st.LinearShards != 5 {
			t.Errorf("query %d: strategy mix %d+%d, want 5 shards", qi, st.LSHShards, st.LinearShards)
		}
		// The probe override plumbing: a huge T must still be exact here.
		oIDs, _, err := sh.QueryWith(q, QueryOpts{Probes: Some(40)})
		if err != nil {
			t.Fatalf("query %d: QueryWith: %v", qi, err)
		}
		if !slices.Equal(sortedIDs(oIDs), sortedIDs(truth)) {
			t.Errorf("query %d: T=40 override = %v, truth = %v", qi, sortedIDs(oIDs), sortedIDs(truth))
		}
	}
	batch, err := sh.QueryBatchWith(queries, 4, QueryOpts{Probes: Some(20)})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(queries))
	}
}

func TestPlainShardedRejectsProbeOverride(t *testing.T) {
	points, queries := tightClusters(200, 5, 8, 23)
	sh, err := NewSharded(L2, points, 0.4, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.QueryWith(queries[0], QueryOpts{Probes: Some(5)}); !errors.Is(err, ErrUnsupportedOption) {
		t.Fatalf("probe override on plain shards: err = %v, want ErrUnsupportedOption", err)
	}
	if _, err := sh.QueryBatchWith(queries, 2, QueryOpts{Probes: Some(5)}); !errors.Is(err, ErrUnsupportedOption) {
		t.Fatalf("batch probe override on plain shards: err = %v, want ErrUnsupportedOption", err)
	}
}

func TestMultiProbeAppendCompact(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(600, 15, 8, 41)
	grow, queries2 := tightClusters(200, 15, 8, 42)
	_ = queries2

	ix, err := New(L2, points, radius, WithSeed(6), WithProbes(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(grow); err != nil {
		t.Fatal(err)
	}
	all := append(append([]Dense(nil), points...), grow...)
	if ix.N() != len(all) {
		t.Fatalf("N() = %d after append, want %d", ix.N(), len(all))
	}
	pre := make([][]int32, len(queries))
	for qi, q := range queries {
		ids, _ := ix.Query(q)
		truth := GroundTruth(L2, all, q, radius)
		if !slices.Equal(sortedIDs(ids), sortedIDs(truth)) {
			t.Fatalf("query %d: post-append answer != truth", qi)
		}
		pre[qi] = sortedIDs(ids)
	}

	// Kill every third point and compact: answers must be the
	// pre-compaction answers minus the dead ids, renumbered by rank.
	dead := make([]bool, ix.N())
	remap := make([]int32, ix.N())
	live := int32(0)
	for i := range dead {
		if i%3 == 0 {
			dead[i] = true
			remap[i] = -1
			continue
		}
		remap[i] = live
		live++
	}
	cix, err := ix.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	if cix.Defaults() != ix.Defaults() || cix.L() != ix.L() {
		t.Fatalf("compaction changed config: mode %+v→%+v, L %d→%d", ix.Defaults(), cix.Defaults(), ix.L(), cix.L())
	}
	for qi, q := range queries {
		got, _ := cix.Query(q)
		want := make([]int32, 0, len(pre[qi]))
		for _, id := range pre[qi] {
			if !dead[id] {
				want = append(want, remap[id])
			}
		}
		if !slices.Equal(sortedIDs(got), want) {
			t.Fatalf("query %d: compacted answers = %v, want %v", qi, sortedIDs(got), want)
		}
	}
}

// TestShardedMultiProbeDeleteCompactSnapshotRestore is the acceptance
// path: a multi-probe sharded index survives delete → compact →
// snapshot → restore with id-identical answers.
func TestShardedMultiProbeDeleteCompactSnapshotRestore(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(900, 20, 10, 57)

	sh, err := NewSharded(L2, points, radius,
		WithSeed(9), WithShards(4), WithProbes(8), WithCompactionThreshold(2)) // auto-compaction off
	if err != nil {
		t.Fatal(err)
	}
	// Delete a deterministic third of the points, then compact.
	var del []int32
	for id := int32(0); id < int32(len(points)); id += 3 {
		del = append(del, id)
	}
	if got := sh.Delete(del); got != len(del) {
		t.Fatalf("Delete removed %d, want %d", got, len(del))
	}
	if _, err := sh.CompactAll(); err != nil {
		t.Fatal(err)
	}

	pre := make([][]int32, len(queries))
	for qi, q := range queries {
		ids, _ := sh.Query(q)
		pre[qi] = sortedIDs(ids)
		for _, id := range ids {
			if id%3 == 0 {
				t.Fatalf("query %d reported deleted id %d", qi, id)
			}
		}
	}

	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSharded(L2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Defaults() != sh.Defaults() {
		t.Fatalf("restored mode %+v, want %+v", restored.Defaults(), sh.Defaults())
	}
	if restored.N() != sh.N() || restored.Deleted() != sh.Deleted() {
		t.Fatalf("restored N/Deleted = %d/%d, want %d/%d", restored.N(), restored.Deleted(), sh.N(), sh.Deleted())
	}
	for qi, q := range queries {
		ids, _ := restored.Query(q)
		if !slices.Equal(sortedIDs(ids), pre[qi]) {
			t.Fatalf("query %d: restored answers %v != live answers %v", qi, sortedIDs(ids), pre[qi])
		}
		// The override path must survive the restore too.
		oids, _, err := restored.QueryWith(q, QueryOpts{Probes: Some(8)})
		if err != nil {
			t.Fatalf("query %d: restored QueryWith: %v", qi, err)
		}
		if !slices.Equal(sortedIDs(oids), pre[qi]) {
			t.Fatalf("query %d: restored T=8 override differs", qi)
		}
	}
	// Deleted ids stay reserved: the next append allocates above them.
	more, _ := tightClusters(8, 2, 10, 58)
	ids, err := restored.Append(more)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if int(id) < len(points) {
			t.Fatalf("append reused id %d below the high-water mark %d", id, len(points))
		}
	}
}

func TestMultiProbePersistRoundTrip(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(500, 12, 8, 71)
	ix, err := New(L2, points, radius, WithSeed(11), WithProbes(6), WithTables(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(L2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Defaults().Probes.N != 6 || loaded.L() != 6 {
		t.Fatalf("loaded T/L = %d/%d, want 6/6", loaded.Defaults().Probes.N, loaded.L())
	}
	for qi, q := range queries {
		want, ws := ix.Query(q)
		got, gs := loaded.Query(q)
		if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("query %d: loaded answers differ", qi)
		}
		if ws.Strategy != gs.Strategy || ws.Collisions != gs.Collisions {
			t.Fatalf("query %d: loaded strategy/collisions %v/%d, want %v/%d",
				qi, gs.Strategy, gs.Collisions, ws.Strategy, ws.Collisions)
		}
	}
	// Re-encoding the loaded index must reproduce the bytes exactly.
	var buf2 bytes.Buffer
	if _, err := loaded.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("multi-probe snapshot re-encode is not byte-identical")
	}
}

// TestMultiProbeSnapshotReaderMismatch checks that the snapshot, not the
// reader, decides the mode: Open and OpenSharded restore a multi-probe
// or a classic file as what it holds, and a plain reader refuses a
// sharded file and the reverse.
func TestMultiProbeSnapshotReaderMismatch(t *testing.T) {
	points, _ := tightClusters(200, 5, 8, 83)
	snapshot := func(ix io.WriterTo, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, opts := range [][]Option{{WithSeed(1)}, {WithSeed(1), WithProbes(10)}} {
		ix, err := New(L2, points, 0.4, opts...)
		plain := snapshot(ix, err)
		loaded, err := Open(L2, bytes.NewReader(plain))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Defaults() != ix.Defaults() {
			t.Errorf("Open: mode %+v, want %+v", loaded.Defaults(), ix.Defaults())
		}
		sh, err := NewSharded(L2, points, 0.4, opts...)
		sharded := snapshot(sh, err)
		shLoaded, err := OpenSharded(L2, bytes.NewReader(sharded))
		if err != nil {
			t.Fatal(err)
		}
		if shLoaded.Defaults() != sh.Defaults() {
			t.Errorf("OpenSharded: mode %+v, want %+v", shLoaded.Defaults(), sh.Defaults())
		}
		if _, err := Open(L2, bytes.NewReader(sharded)); err == nil {
			t.Error("Open accepted a sharded snapshot")
		}
		if _, err := OpenSharded(L2, bytes.NewReader(plain)); err == nil {
			t.Error("OpenSharded accepted a plain snapshot")
		}
	}
}
