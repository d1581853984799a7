package hybridlsh

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/persist"
)

func TestMultiProbeL2Basics(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(800, 20, 10, 31)

	ix, err := NewMultiProbeL2Index(points, radius, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if ix.L() != 10 {
		t.Fatalf("default L = %d, want 10 (the multi-probe regime)", ix.L())
	}
	if ix.Probes() != 10 {
		t.Fatalf("default Probes = %d, want 10", ix.Probes())
	}
	for qi, q := range queries {
		truth := GroundTruth(points, q, radius)
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
	ix, err := NewMultiProbeL2Index(points, radius, WithSeed(3), WithTables(4), WithProbes(2))
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		few, _ := ix.QueryLSHProbes(q, 0)
		many, _ := ix.QueryLSHProbes(q, 40)
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
	if _, err := NewMultiProbeL2Index(nil, 0.3); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := NewMultiProbeL2Index(points, 0); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewShardedMultiProbeL2Index(nil, 0.3); err == nil {
		t.Error("sharded: empty point set accepted")
	}
	if _, err := NewShardedMultiProbeL2Index(points, -1); err == nil {
		t.Error("sharded: negative radius accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("applying WithProbes(0) did not panic")
		}
	}()
	NewMultiProbeL2Index(points, 0.3, WithProbes(0))
}

func TestShardedMultiProbeMatchesUnsharded(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(1000, 25, 10, 17)

	flat, err := NewMultiProbeL2Index(points, radius, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedMultiProbeL2Index(points, radius, WithSeed(4), WithShards(5), WithProbes(12))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Probes() != 12 {
		t.Fatalf("Probes() = %d, want 12", sh.Probes())
	}
	for qi, q := range queries {
		truth := GroundTruth(points, q, radius)
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
	sh, err := NewShardedL2Index(points, 0.4, WithSeed(2))
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

	ix, err := NewMultiProbeL2Index(points, radius, WithSeed(6))
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
		truth := GroundTruth(all, q, radius)
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
	if cix.Probes() != ix.Probes() || cix.L() != ix.L() {
		t.Fatalf("compaction changed config: T %d→%d, L %d→%d", ix.Probes(), cix.Probes(), ix.L(), cix.L())
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

	sh, err := NewShardedMultiProbeL2Index(points, radius,
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
	restored, err := ReadShardedMultiProbeL2Index(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Probes() != sh.Probes() {
		t.Fatalf("restored Probes() = %d, want %d", restored.Probes(), sh.Probes())
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
	ix, err := NewMultiProbeL2Index(points, radius, WithSeed(11), WithProbes(6), WithTables(6))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadMultiProbeL2Index(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Probes() != 6 || loaded.L() != 6 {
		t.Fatalf("loaded T/L = %d/%d, want 6/6", loaded.Probes(), loaded.L())
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

func TestMultiProbeSnapshotReaderMismatch(t *testing.T) {
	points, _ := tightClusters(200, 5, 8, 83)

	mp, err := NewMultiProbeL2Index(points, 0.4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var mpBuf bytes.Buffer
	if _, err := mp.WriteTo(&mpBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadL2Index(bytes.NewReader(mpBuf.Bytes())); !errors.Is(err, persist.ErrProbeMode) {
		t.Errorf("plain reader on a multi-probe snapshot: err = %v, want persist.ErrProbeMode", err)
	}

	plain, err := NewL2Index(points, 0.4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var plainBuf bytes.Buffer
	if _, err := plain.WriteTo(&plainBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMultiProbeL2Index(bytes.NewReader(plainBuf.Bytes())); !errors.Is(err, persist.ErrProbeMode) {
		t.Errorf("multi-probe reader on a plain snapshot: err = %v, want persist.ErrProbeMode", err)
	}

	shPlain, err := NewShardedL2Index(points, 0.4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var shPlainBuf bytes.Buffer
	if _, err := shPlain.WriteTo(&shPlainBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardedMultiProbeL2Index(bytes.NewReader(shPlainBuf.Bytes())); !errors.Is(err, persist.ErrProbeMode) {
		t.Errorf("sharded multi-probe reader on a plain sharded snapshot: err = %v, want persist.ErrProbeMode", err)
	}

	shMP, err := NewShardedMultiProbeL2Index(points, 0.4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var shMPBuf bytes.Buffer
	if _, err := shMP.WriteTo(&shMPBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardedL2Index(bytes.NewReader(shMPBuf.Bytes())); !errors.Is(err, persist.ErrProbeMode) {
		t.Errorf("plain sharded reader on a multi-probe sharded snapshot: err = %v, want persist.ErrProbeMode", err)
	}
}
