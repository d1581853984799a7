package replicatest

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	hybridlsh "repro"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/vector"
)

// recoveryFixture is one journaled workload: a deterministic base
// index, a WAL directory holding every mutation as frames, and the
// frames themselves (scanned back out of the segment files) so tests
// can replay any prefix as an oracle.
type recoveryFixture struct {
	dim     int
	radius  float64
	shards  int
	seed    uint64
	points  []vector.Dense
	queries []vector.Dense
	hdr     persist.DeltaHeader
	dir     string   // pristine WAL directory — copy, never mutate
	frames  [][]byte // all journaled frames, in seq order
}

const recoveryEpoch = 424242

// buildRecoveryFixture runs a mixed append/delete/compact workload
// through a real Log+WAL and returns the pristine artifacts.
func buildRecoveryFixture(t *testing.T, segBytes int64) *recoveryFixture {
	t.Helper()
	fx := &recoveryFixture{dim: 6, radius: 0.35, shards: 2, seed: 11}
	var spares []vector.Dense
	fx.points, spares, fx.queries = clusteredData(300, 60, 20, fx.dim, fx.seed)
	fx.hdr = persist.DeltaHeader{Epoch: recoveryEpoch, Metric: persist.MetricL2, Dim: fx.dim}
	fx.dir = t.TempDir()

	w, rec, err := replica.OpenWAL(fx.dir, fx.hdr, replica.WALOptions{
		Fsync: replica.FsyncOff, SegmentBytes: segBytes,
	})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if rec.LastSeq != 0 {
		t.Fatalf("fresh WAL recovered seq %d, want 0", rec.LastSeq)
	}
	lg := replica.NewLog(fx.hdr, 0)
	lg.AttachWAL(w)

	base := fx.newBase(t)
	base.SetJournal(replica.NewRecorder[vector.Dense](lg))
	base.SetAutoCompact(1)

	// The workload: staggered appends, deletes of both old and new ids,
	// and a full compaction in the middle — every frame kind, several of
	// each.
	var newIDs []int32
	for i := 0; i < len(spares); i += 15 {
		ids, err := base.Append(spares[i : i+15])
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		newIDs = append(newIDs, ids...)
	}
	base.Delete([]int32{1, 3, 5, newIDs[0], newIDs[7]})
	if _, err := base.CompactAll(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	base.Delete(newIDs[10:14])
	if _, err := base.Append(spares[:5]); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := lg.Err(); err != nil {
		t.Fatalf("journal latched: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// Scan the frames back out of the pristine segments; they are the
	// byte-level ground truth every recovery is judged against.
	fx.frames = scanSegments(t, fx.dir, fx.hdr)
	if len(fx.frames) < 8 {
		t.Fatalf("workload journaled %d frames, want >= 8 for meaningful cuts", len(fx.frames))
	}
	return fx
}

// newBase rebuilds the deterministic pre-workload index.
func (fx *recoveryFixture) newBase(t *testing.T) *shard.Sharded[vector.Dense] {
	t.Helper()
	sh, err := hybridlsh.NewSharded(hybridlsh.L2, fx.points, fx.radius,
		hybridlsh.WithShards(fx.shards), hybridlsh.WithSeed(fx.seed))
	if err != nil {
		t.Fatalf("base build: %v", err)
	}
	return sh.Sharded
}

// answersAt replays the first k frames onto a fresh base and returns
// the sorted ids for every fixture query.
func (fx *recoveryFixture) answersAt(t *testing.T, k int) [][]int32 {
	t.Helper()
	sh := fx.newBase(t)
	sh.SetAutoCompact(1)
	if n, err := replica.ReplayRaw(sh, fx.hdr, fx.frames[:k]); err != nil || n != k {
		t.Fatalf("oracle replay of %d frames: applied %d, err %v", k, n, err)
	}
	out := make([][]int32, len(fx.queries))
	for i, q := range fx.queries {
		ids, _ := sh.Query(q)
		slices.Sort(ids)
		out[i] = ids
	}
	return out
}

// scanSegments walks the numbered segment files and returns every frame
// in sequence order, failing on any corruption (the pristine fixture
// must be intact).
func scanSegments(t *testing.T, dir string, hdr persist.DeltaHeader) [][]byte {
	t.Helper()
	var frames [][]byte
	seq := uint64(1)
	for _, name := range segmentNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		_, off, err := persist.ReadWALSegmentHeader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s header: %v", name, err)
		}
		for off < len(data) {
			n, err := persist.ScanDeltaFrame(data[off:], seq)
			if err != nil {
				t.Fatalf("%s frame %d: %v", name, seq, err)
			}
			frames = append(frames, data[off:off+n])
			off += n
			seq++
		}
	}
	return frames
}

func segmentNames(t *testing.T, dir string) []string {
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
	return names
}

// cloneDir copies the pristine WAL into a fresh temp dir for faulting.
func (fx *recoveryFixture) cloneDir(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	if err := CopyDir(fx.dir, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// reopen recovers the (possibly faulted) directory. The caller's header
// carries a WRONG epoch on purpose: recovery must take the epoch from
// disk.
func (fx *recoveryFixture) reopen(t *testing.T, dir string) (*replica.WAL, *replica.WALRecovery) {
	t.Helper()
	bootHdr := fx.hdr
	bootHdr.Epoch = 1
	w, rec, err := replica.OpenWAL(dir, bootHdr, replica.WALOptions{Fsync: replica.FsyncOff})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	if rec.Epoch != recoveryEpoch {
		t.Fatalf("recovered epoch %d, want the on-disk %d", rec.Epoch, recoveryEpoch)
	}
	return w, rec
}

// assertPrefix checks a recovery yielded exactly the first want frames,
// byte for byte.
func assertPrefix(t *testing.T, rec *replica.WALRecovery, frames [][]byte, want int) {
	t.Helper()
	if len(rec.Frames) != want {
		t.Fatalf("recovered %d frames, want the longest intact prefix %d", len(rec.Frames), want)
	}
	for i, f := range rec.Frames {
		if !bytes.Equal(f, frames[i]) {
			t.Fatalf("recovered frame %d differs from the journaled bytes", i)
		}
	}
	if rec.LastSeq != uint64(want) {
		t.Fatalf("recovered LastSeq %d, want %d", rec.LastSeq, want)
	}
}

// TestWALKillAtEveryOffset is the exhaustive torn-write sweep: the
// single-segment WAL is cut at EVERY byte offset, reopened, and must
// recover exactly the frames whose bytes fully precede the cut — and
// for every distinct prefix length, a store replayed from the recovery
// answers id-identically to the oracle replayed to the same prefix.
func TestWALKillAtEveryOffset(t *testing.T) {
	fx := buildRecoveryFixture(t, 0) // one big segment
	segs := segmentNames(t, fx.dir)
	if len(segs) != 1 {
		t.Fatalf("fixture built %d segments, want 1", len(segs))
	}
	pristine, err := os.ReadFile(filepath.Join(fx.dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries within the file.
	hdrSize := persist.WALSegmentHeaderSize(persist.MetricL2)
	boundaries := []int{hdrSize}
	for _, f := range fx.frames {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+len(f))
	}
	if boundaries[len(boundaries)-1] != len(pristine) {
		t.Fatalf("frame boundaries end at %d, file is %d bytes", boundaries[len(boundaries)-1], len(pristine))
	}

	// Cuts inside the segment header are a hard error: the directory
	// holds state recovery cannot interpret, and guessing would fork the
	// epoch. (Cut 0 removes the file entirely — that IS a fresh log.)
	for _, cut := range []int{1, hdrSize / 2, hdrSize - 1} {
		dir := fx.cloneDir(t)
		if err := TruncateFile(filepath.Join(dir, segs[0]), int64(cut)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := replica.OpenWAL(dir, fx.hdr, replica.WALOptions{}); err == nil {
			t.Fatalf("cut %d (inside the header): recovery succeeded, want a hard error", cut)
		}
	}

	oracle := make(map[int][][]int32)
	dir := t.TempDir()
	path := filepath.Join(dir, segs[0])
	lastChecked := -1
	for cut := hdrSize; cut <= len(pristine); cut++ {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The longest intact prefix: frames whose bytes all precede cut.
		k := 0
		for k+1 < len(boundaries) && boundaries[k+1] <= cut {
			k++
		}
		_, rec := fx.reopen(t, dir)
		assertPrefix(t, rec, fx.frames, k)
		if wantTorn := int64(cut - boundaries[k]); rec.TruncatedBytes != wantTorn {
			t.Fatalf("cut %d: truncated %d torn bytes, want %d", cut, rec.TruncatedBytes, wantTorn)
		}

		// Store-level equivalence once per distinct prefix length (the
		// bytes were already proven identical above).
		if k != lastChecked {
			lastChecked = k
			if _, ok := oracle[k]; !ok {
				oracle[k] = fx.answersAt(t, k)
			}
			sh := fx.newBase(t)
			sh.SetAutoCompact(1)
			if n, err := replica.ReplayRaw(sh, fx.hdr, rec.Frames); err != nil || n != k {
				t.Fatalf("cut %d: replay applied %d frames, err %v", cut, n, err)
			}
			for qi, q := range fx.queries {
				ids, _ := sh.Query(q)
				slices.Sort(ids)
				if !slices.Equal(ids, oracle[k][qi]) {
					t.Fatalf("cut %d query %d: recovered store %v, oracle %v", cut, qi, ids, oracle[k][qi])
				}
			}
		}
	}
	// Vacuity check: the sweep must have exercised every prefix length.
	if lastChecked != len(fx.frames) {
		t.Fatalf("sweep ended at prefix %d, want %d", lastChecked, len(fx.frames))
	}
}

// TestWALCorruptionTable drives the disk-fault injectors over a
// multi-segment WAL: flipped bits, torn tails and trailing garbage must
// each degrade recovery to a well-defined intact prefix — never a wrong
// answer, never a crash — and repair must be durable (a second reopen
// is clean). Store-level answers are checked against the prefix oracle
// every time.
func TestWALCorruptionTable(t *testing.T) {
	fx := buildRecoveryFixture(t, 600) // several small segments
	segs := segmentNames(t, fx.dir)
	if len(segs) < 3 {
		t.Fatalf("fixture built %d segments, want >= 3", len(segs))
	}
	// Per-segment frame ranges: firstFrame[i] is the index (0-based) of
	// segment i's first frame.
	firstFrame := make([]int, len(segs))
	for i, name := range segs {
		if i == 0 {
			continue
		}
		prev, err := os.ReadFile(filepath.Join(fx.dir, segs[i-1]))
		if err != nil {
			t.Fatal(err)
		}
		hdrSize := persist.WALSegmentHeaderSize(persist.MetricL2)
		nframes := 0
		for off := hdrSize; off < len(prev); {
			n, err := persist.ScanDeltaFrame(prev[off:], 0)
			if err != nil {
				t.Fatal(err)
			}
			off += n
			nframes++
		}
		firstFrame[i] = firstFrame[i-1] + nframes
		_ = name
	}
	hdrSize := persist.WALSegmentHeaderSize(persist.MetricL2)

	cases := []struct {
		name string
		// fault corrupts the cloned dir and returns the expected intact
		// prefix (frame count) and dropped-segment count.
		fault func(t *testing.T, dir string) (wantFrames, wantDropped int)
	}{
		{"bit-flip-mid-segment-payload", func(t *testing.T, dir string) (int, int) {
			// Flip a bit inside segment 1's first frame: recovery keeps
			// segment 0 whole, truncates segment 1 at the corrupt frame, and
			// drops every later segment (their seqs would gap).
			if err := FlipBit(filepath.Join(dir, segs[1]), int64(hdrSize+25), 3); err != nil {
				t.Fatal(err)
			}
			return firstFrame[1], len(segs) - 2
		}},
		{"bit-flip-last-frame-crc", func(t *testing.T, dir string) (int, int) {
			last := filepath.Join(dir, segs[len(segs)-1])
			st, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := FlipBit(last, st.Size()-1, 0); err != nil {
				t.Fatal(err)
			}
			return len(fx.frames) - 1, 0
		}},
		{"torn-tail", func(t *testing.T, dir string) (int, int) {
			last := filepath.Join(dir, segs[len(segs)-1])
			st, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := TruncateFile(last, st.Size()-7); err != nil {
				t.Fatal(err)
			}
			return len(fx.frames) - 1, 0
		}},
		{"trailing-garbage", func(t *testing.T, dir string) (int, int) {
			if err := AppendGarbage(filepath.Join(dir, segs[len(segs)-1]), []byte("\x00\xff\x13garbage")); err != nil {
				t.Fatal(err)
			}
			return len(fx.frames), 0
		}},
		{"later-segment-header-corrupt", func(t *testing.T, dir string) (int, int) {
			// Magic byte of segment 2's header: the segment (and everything
			// after) is dropped whole; segments 0 and 1 survive.
			if err := FlipBit(filepath.Join(dir, segs[2]), 2, 1); err != nil {
				t.Fatal(err)
			}
			return firstFrame[2], len(segs) - 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := fx.cloneDir(t)
			wantFrames, wantDropped := tc.fault(t, dir)

			w, rec := fx.reopen(t, dir)
			assertPrefix(t, rec, fx.frames, wantFrames)
			if rec.DroppedSegments != wantDropped {
				t.Fatalf("dropped %d segments, want %d", rec.DroppedSegments, wantDropped)
			}

			// Repair is durable: closing and reopening finds nothing left to
			// fix and the same prefix.
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec2 := fx.reopen(t, dir)
			assertPrefix(t, rec2, fx.frames, wantFrames)
			if rec2.TruncatedBytes != 0 || rec2.DroppedSegments != 0 {
				t.Fatalf("second reopen repaired again (%d bytes, %d segments), want a clean pass",
					rec2.TruncatedBytes, rec2.DroppedSegments)
			}

			// The recovered store answers id-identically to the oracle at
			// the same prefix.
			want := fx.answersAt(t, wantFrames)
			sh := fx.newBase(t)
			sh.SetAutoCompact(1)
			if n, err := replica.ReplayRaw(sh, fx.hdr, rec2.Frames); err != nil || n != wantFrames {
				t.Fatalf("replay applied %d frames, err %v", n, err)
			}
			for qi, q := range fx.queries {
				ids, _ := sh.Query(q)
				slices.Sort(ids)
				if !slices.Equal(ids, want[qi]) {
					t.Fatalf("query %d: recovered store %v, oracle %v", qi, ids, want[qi])
				}
			}
		})
	}
}
