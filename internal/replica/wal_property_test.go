package replica_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/replica/replicatest"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// The WAL property: for ANY interleaving of appends, deletes and
// compactions journaled to a real on-disk WAL, a crash image taken at
// ANY point mid-stream (with a randomly torn tail) recovers a prefix
// that is byte-identical to the in-memory journal, and a store restored
// from it answers id-identically to the PR-9 snapshot+delta replay
// oracle fed the same prefix — for classic, multi-probe and covering
// backends.

// walSegmentsOf lists the segment files of a WAL directory in order.
func walSegmentsOf(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".wal" {
			names = append(names, e.Name())
		}
	}
	slices.Sort(names)
	if len(names) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	return names
}

func runWALProperty[P any](
	t *testing.T,
	seed uint64,
	newStore func(t *testing.T) *shard.Sharded[P],
	spare []P,
	queries []P,
	hdr persist.DeltaHeader,
) {
	dir := t.TempDir()
	w, rec0, err := replica.OpenWAL(dir, hdr, replica.WALOptions{
		Fsync: replica.FsyncInterval, SyncEvery: time.Millisecond, SegmentBytes: 900,
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if rec0.LastSeq != 0 {
		t.Fatalf("fresh WAL recovered seq %d, want 0", rec0.LastSeq)
	}
	lg := replica.NewLog(hdr, 0)
	lg.AttachWAL(w)
	writer := newStore(t)
	writer.SetJournal(replica.NewRecorder[P](lg))

	r := rng.New(seed * 31)
	var live []int32
	for id := int32(0); id < int32(writer.N()); id++ {
		live = append(live, id)
	}
	nextSpare := 0
	mutate := func(ops int) {
		for op := 0; op < ops; op++ {
			switch k := r.Float64(); {
			case k < 0.55: // append 1..6 points
				n := 1 + int(r.Float64()*5)
				batch := make([]P, n)
				for i := range batch {
					batch[i] = spare[nextSpare%len(spare)]
					nextSpare++
				}
				ids, err := writer.Append(batch)
				if err != nil {
					t.Fatalf("append: %v", err)
				}
				live = append(live, ids...)
			case k < 0.85 && len(live) > 4: // delete 1..4 live ids
				n := 1 + int(r.Float64()*3)
				ids := make([]int32, 0, n)
				for i := 0; i < n; i++ {
					j := int(r.Float64() * float64(len(live)))
					ids = append(ids, live[j])
					live = slices.Delete(live, j, j+1)
				}
				writer.Delete(ids)
			default: // compact a random shard
				j := int(r.Float64() * float64(writer.Shards()))
				if _, err := writer.Compact(j); err != nil {
					t.Fatalf("compact(%d): %v", j, err)
				}
			}
		}
	}

	// oracleAt replays the first k journal frames through the PR-9
	// delta-stream path (header + DeltaReader + Apply — the hydration
	// wire format) onto a fresh base.
	allFrames := func() [][]byte {
		frames, last, err := lg.Since(0, 0)
		if err != nil {
			t.Fatalf("Since(0): %v", err)
		}
		if last != lg.Seq() {
			t.Fatalf("Since through %d, log at %d", last, lg.Seq())
		}
		return frames
	}
	oracleAt := func(frames [][]byte) *shard.Sharded[P] {
		sh := newStore(t)
		sh.SetAutoCompact(1)
		var stream bytes.Buffer
		if err := persist.WriteDeltaHeader(&stream, hdr); err != nil {
			t.Fatalf("WriteDeltaHeader: %v", err)
		}
		for _, f := range frames {
			stream.Write(f)
		}
		dr, err := persist.NewDeltaReader[P](&stream, hdr.Metric)
		if err != nil {
			t.Fatalf("NewDeltaReader: %v", err)
		}
		for {
			frame, err := dr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if err := replica.Apply(sh, frame); err != nil {
				t.Fatalf("Apply(seq %d): %v", frame.Seq, err)
			}
		}
		return sh
	}

	// verify crashes the WAL at this instant: copy the directory, tear
	// tornCut bytes off the copied tail, recover, and cross-check the
	// warm-restart replay against the delta-stream oracle.
	verify := func(tornCut int64) {
		img := t.TempDir()
		if err := replicatest.CopyDir(dir, img); err != nil {
			t.Fatal(err)
		}
		if tornCut > 0 {
			segs := walSegmentsOf(t, img)
			last := filepath.Join(img, segs[len(segs)-1])
			st, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			// Never cut into the segment header: a torn header on a sole
			// segment is the separately-tested hard-error path.
			if cut := st.Size() - tornCut; cut > int64(persist.WALSegmentHeaderSize(hdr.Metric)) {
				if err := replicatest.TruncateFile(last, cut); err != nil {
					t.Fatal(err)
				}
			}
		}
		bootHdr := persist.DeltaHeader{Epoch: 1, Metric: hdr.Metric, Dim: hdr.Dim}
		w2, rec, err := replica.OpenWAL(img, bootHdr, replica.WALOptions{})
		if err != nil {
			t.Fatalf("crash-image recovery: %v", err)
		}
		w2.Close()
		if rec.Epoch != hdr.Epoch {
			t.Fatalf("recovered epoch %d, want the on-disk %d", rec.Epoch, hdr.Epoch)
		}
		all := allFrames()
		k := len(rec.Frames)
		if k > len(all) {
			t.Fatalf("recovered %d frames, journal only holds %d", k, len(all))
		}
		for i := range rec.Frames {
			if !bytes.Equal(rec.Frames[i], all[i]) {
				t.Fatalf("recovered frame %d differs from the journal's bytes", i)
			}
		}

		restored := newStore(t)
		restored.SetAutoCompact(1)
		if n, err := replica.ReplayRaw(restored, hdr, rec.Frames); err != nil || n != k {
			t.Fatalf("ReplayRaw applied %d of %d frames: %v", n, k, err)
		}
		oracle := oracleAt(all[:k])
		if restored.N() != oracle.N() || restored.Deleted() != oracle.Deleted() {
			t.Fatalf("restored N=%d Deleted=%d, oracle N=%d Deleted=%d",
				restored.N(), restored.Deleted(), oracle.N(), oracle.Deleted())
		}
		for qi, q := range queries {
			want, _ := oracle.Query(q)
			got, _ := restored.Query(q)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("query %d: restored %v, oracle %v", qi, got, want)
			}
		}
	}

	// Three mid-stream crash points with random torn tails, then a
	// clean close and a full recovery that must equal the live writer.
	for i := 0; i < 3; i++ {
		mutate(30)
		if err := writer.SyncJournal(); err != nil {
			t.Fatalf("SyncJournal: %v", err)
		}
		verify(int64(r.Float64() * 30))
	}
	if err := lg.Err(); err != nil {
		t.Fatalf("journal latched: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	w3, recFull, err := replica.OpenWAL(dir, persist.DeltaHeader{Epoch: 1, Metric: hdr.Metric, Dim: hdr.Dim}, replica.WALOptions{})
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	w3.Close()
	if recFull.Epoch != hdr.Epoch || recFull.LastSeq != lg.Seq() {
		t.Fatalf("final recovery epoch %d seq %d, want epoch %d seq %d",
			recFull.Epoch, recFull.LastSeq, hdr.Epoch, lg.Seq())
	}
	restored := newStore(t)
	restored.SetAutoCompact(1)
	if n, err := replica.ReplayRaw(restored, hdr, recFull.Frames); err != nil || n != len(recFull.Frames) {
		t.Fatalf("final ReplayRaw applied %d frames: %v", n, err)
	}
	if restored.N() != writer.N() || restored.Deleted() != writer.Deleted() {
		t.Fatalf("restored N=%d Deleted=%d, writer N=%d Deleted=%d",
			restored.N(), restored.Deleted(), writer.N(), writer.Deleted())
	}
	if got, want := restored.ShardSizes(), writer.ShardSizes(); !slices.Equal(got, want) {
		t.Fatalf("restored shard sizes %v, writer %v", got, want)
	}
	answered := 0
	for qi, q := range queries {
		want, _ := writer.Query(q)
		got, _ := restored.Query(q)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("final query %d: restored %v, writer %v", qi, got, want)
		}
		answered += len(want)
	}
	if answered == 0 {
		t.Fatal("no query returned any neighbor; the property is vacuous")
	}
}

func TestWALPropertyClassic(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		data := denseReplayData(900, seed)
		newStore := func(t *testing.T) *shard.Sharded[vector.Dense] {
			t.Helper()
			sh, err := shard.New(data[:600], 3, seed, func(pts []vector.Dense, s uint64) (core.Store[vector.Dense], error) {
				return core.NewIndex(pts, core.Config[vector.Dense]{
					Family:   lsh.NewPStableL2(replayDim, 2*replayRadius),
					Distance: distance.L2,
					Radius:   replayRadius,
					K:        7,
					Seed:     s,
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			return sh
		}
		runWALProperty(t, seed, newStore, data[600:], data[:24],
			persist.DeltaHeader{Epoch: seed + 100, Metric: persist.MetricL2, Dim: replayDim})
	}
}

func TestWALPropertyMultiProbe(t *testing.T) {
	seed := uint64(2)
	data := denseReplayData(900, seed)
	newStore := func(t *testing.T) *shard.Sharded[vector.Dense] {
		t.Helper()
		sh, err := shard.New(data[:600], 3, seed, func(pts []vector.Dense, s uint64) (core.Store[vector.Dense], error) {
			return core.NewIndex(pts, core.Config[vector.Dense]{
				Family:   lsh.NewPStableL2(replayDim, 2*replayRadius),
				Distance: distance.L2,
				Radius:   replayRadius,
				K:        7,
				L:        4,
				Probes:   2,
				Seed:     s,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	runWALProperty(t, seed, newStore, data[600:], data[:24],
		persist.DeltaHeader{Epoch: seed + 100, Metric: persist.MetricL2, Dim: replayDim})
}

func TestWALPropertyCovering(t *testing.T) {
	seed := uint64(3)
	data := binaryReplayData(600, seed)
	newStore := func(t *testing.T) *shard.Sharded[vector.Binary] {
		t.Helper()
		sh, err := shard.New(data[:400], 2, seed, func(pts []vector.Binary, s uint64) (core.Store[vector.Binary], error) {
			return covering.New(pts, 3, covering.Config{HLLRegisters: 16, HLLThreshold: 3, Seed: s})
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	runWALProperty(t, seed, newStore, data[400:], data[:24],
		persist.DeltaHeader{Epoch: seed + 100, Metric: persist.MetricHamming, Dim: replayBits})
}
