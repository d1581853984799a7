package replica_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/vector"
)

var walHdr = persist.DeltaHeader{Epoch: 77, Metric: persist.MetricL2, Dim: replayDim}

// walFrames encodes n delete frames carrying seqs start..start+n-1,
// each tombstoning a distinct id so the bytes differ frame to frame.
func walFrames(t *testing.T, hdr persist.DeltaHeader, start uint64, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		seq := start + uint64(i)
		b, err := persist.EncodeDeltaFrame(hdr, persist.DeltaFrame[vector.Dense]{
			Seq: seq, Kind: persist.DeltaDelete, IDs: []int32{int32(seq)},
		})
		if err != nil {
			t.Fatalf("EncodeDeltaFrame(seq %d): %v", seq, err)
		}
		frames[i] = b
	}
	return frames
}

func mustOpenWAL(t *testing.T, dir string, hdr persist.DeltaHeader, opt replica.WALOptions) (*replica.WAL, *replica.WALRecovery) {
	t.Helper()
	w, rec, err := replica.OpenWAL(dir, hdr, opt)
	if err != nil {
		t.Fatalf("OpenWAL(%s): %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w, rec
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestWALFreshOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	w, rec := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec.Epoch != walHdr.Epoch || rec.FirstSeq != 1 || rec.LastSeq != 0 || len(rec.Frames) != 0 {
		t.Fatalf("fresh recovery %+v, want empty at epoch %d", rec, walHdr.Epoch)
	}
	frames := walFrames(t, walHdr, 1, 25)
	for i, f := range frames {
		if err := w.Append(uint64(i+1), f); err != nil {
			t.Fatalf("Append(%d): %v", i+1, err)
		}
	}
	if got := w.LastSeq(); got != 25 {
		t.Fatalf("LastSeq = %d, want 25", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, rec2 := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec2.Epoch != walHdr.Epoch || rec2.FirstSeq != 1 || rec2.LastSeq != 25 {
		t.Fatalf("reopen recovery epoch=%d first=%d last=%d, want %d/1/25",
			rec2.Epoch, rec2.FirstSeq, rec2.LastSeq, walHdr.Epoch)
	}
	if rec2.TruncatedBytes != 0 || rec2.DroppedSegments != 0 {
		t.Fatalf("clean reopen reported damage: %+v", rec2)
	}
	if !reflect.DeepEqual(rec2.Frames, frames) {
		t.Fatal("recovered frames differ from appended frames")
	}
	// The cursor resumes: the next append must be seq 26, and 27 refused.
	if err := w2.Append(27, walFrames(t, walHdr, 27, 1)[0]); err == nil {
		t.Fatal("Append(27) after last seq 25 succeeded, want seq-gap error")
	}
	if err := w2.Append(26, walFrames(t, walHdr, 26, 1)[0]); err != nil {
		t.Fatalf("Append(26): %v", err)
	}
}

func TestWALEpochFromDiskWins(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if err := w.Append(1, walFrames(t, walHdr, 1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Reopening with a different epoch (a naive restart stamping a new
	// boot time) must surface the disk epoch, not the caller's.
	newer := walHdr
	newer.Epoch = walHdr.Epoch + 1000
	_, rec := mustOpenWAL(t, dir, newer, replica.WALOptions{})
	if rec.Epoch != walHdr.Epoch {
		t.Fatalf("recovered epoch %d, want the on-disk %d", rec.Epoch, walHdr.Epoch)
	}
}

func TestWALHeaderMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	w.Close()
	other := walHdr
	other.Dim = walHdr.Dim * 2
	if _, _, err := replica.OpenWAL(dir, other, replica.WALOptions{}); err == nil {
		t.Fatal("OpenWAL with mismatched dim succeeded, want error")
	}
	other = walHdr
	other.Metric = persist.MetricCosine
	if _, _, err := replica.OpenWAL(dir, other, replica.WALOptions{}); err == nil {
		t.Fatal("OpenWAL with mismatched metric succeeded, want error")
	}
}

func TestWALBadFsyncPolicy(t *testing.T) {
	if _, _, err := replica.OpenWAL(t.TempDir(), walHdr, replica.WALOptions{Fsync: "sometimes"}); err == nil {
		t.Fatal("OpenWAL with bogus fsync policy succeeded, want error")
	}
}

func TestWALRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	frames := walFrames(t, walHdr, 1, 40)
	// Cap segments at ~4 frames so 40 appends rotate plenty.
	segBytes := int64(persist.WALSegmentHeaderSize(walHdr.Metric) + 4*len(frames[0]))
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{SegmentBytes: segBytes, Fsync: replica.FsyncOff})
	for i, f := range frames {
		if err := w.Append(uint64(i+1), f); err != nil {
			t.Fatalf("Append(%d): %v", i+1, err)
		}
	}
	st := w.Stats()
	if st.Segments < 5 {
		t.Fatalf("40 appends at 4 frames/segment produced %d segments, want >= 5", st.Segments)
	}
	if st.Rotations != int64(st.Segments-1) {
		t.Fatalf("rotations %d with %d segments", st.Rotations, st.Segments)
	}

	// Snapshot covers through seq 20: every segment whose frames are all
	// <= 20 may go, the rest (and always the active one) survive.
	removed, err := w.TruncateThrough(20)
	if err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	if removed == 0 {
		t.Fatal("TruncateThrough(20) removed nothing")
	}
	st = w.Stats()
	if st.FirstSeq > 21 {
		t.Fatalf("truncation cut uncovered frames: first retained seq %d > 21", st.FirstSeq)
	}
	w.Close()

	// Reopen: the surviving suffix must still recover contiguously.
	_, rec := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec.LastSeq != 40 {
		t.Fatalf("reopen after truncation: last seq %d, want 40", rec.LastSeq)
	}
	if rec.FirstSeq != st.FirstSeq {
		t.Fatalf("reopen first seq %d, stats said %d", rec.FirstSeq, st.FirstSeq)
	}
	want := frames[rec.FirstSeq-1:]
	if !reflect.DeepEqual(rec.Frames, want) {
		t.Fatalf("recovered %d frames from seq %d, bytes differ from appended", len(rec.Frames), rec.FirstSeq)
	}

	// Covering everything still keeps the active segment: the epoch and
	// cursor must survive a snapshot that covers the whole log.
	w2, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if _, err := w2.TruncateThrough(40); err != nil {
		t.Fatal(err)
	}
	if got := len(segmentFiles(t, dir)); got < 1 {
		t.Fatalf("TruncateThrough(everything) left %d segments, want >= 1", got)
	}
	w2.Close()
	_, rec = mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec.Epoch != walHdr.Epoch || rec.LastSeq != 40 {
		t.Fatalf("after full truncation: epoch %d last %d, want %d/40", rec.Epoch, rec.LastSeq, walHdr.Epoch)
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	frames := walFrames(t, walHdr, 1, 10)
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{Fsync: replica.FsyncOff})
	for i, f := range frames {
		if err := w.Append(uint64(i+1), f); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the last frame: cut half of it off.
	segs := segmentFiles(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(frames[9]) / 2
	if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec.LastSeq != 9 {
		t.Fatalf("torn-tail recovery last seq %d, want 9", rec.LastSeq)
	}
	if rec.TruncatedBytes != int64(len(frames[9])-cut) {
		t.Fatalf("TruncatedBytes %d, want %d", rec.TruncatedBytes, len(frames[9])-cut)
	}
	if !reflect.DeepEqual(rec.Frames, frames[:9]) {
		t.Fatal("recovered frames differ from the intact prefix")
	}

	// The repair is durable: a second reopen sees a clean log.
	_, rec2 := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec2.TruncatedBytes != 0 || rec2.LastSeq != 9 {
		t.Fatalf("second reopen not clean: %+v", rec2)
	}
}

func TestWALMidSegmentCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	frames := walFrames(t, walHdr, 1, 30)
	segBytes := int64(persist.WALSegmentHeaderSize(walHdr.Metric) + 10*len(frames[0]))
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{SegmentBytes: segBytes, Fsync: replica.FsyncOff})
	for i, f := range frames {
		if err := w.Append(uint64(i+1), f); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v", segs)
	}

	// Flip a bit in the middle of segment 2: its tail AND all of segment
	// 3+ must go (keeping them would leave a sequence gap).
	path := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrSize := persist.WALSegmentHeaderSize(walHdr.Metric)
	mid := hdrSize + 3*len(frames[0]) + 7 // inside segment 2's 4th frame
	data[mid] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if want := uint64(13); rec.LastSeq != want { // 10 (seg 1) + 3 intact in seg 2
		t.Fatalf("recovery last seq %d, want %d", rec.LastSeq, want)
	}
	if rec.DroppedSegments == 0 {
		t.Fatal("mid-segment corruption dropped no later segments")
	}
	if !reflect.DeepEqual(rec.Frames, frames[:rec.LastSeq]) {
		t.Fatal("recovered frames differ from the intact prefix")
	}
	if got := segmentFiles(t, dir); len(got) != 2 {
		t.Fatalf("damaged directory still holds %v, want the 2 surviving segments", got)
	}
}

func TestWALFirstSegmentHeaderCorruptIsHardError(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if err := w.Append(1, walFrames(t, walHdr, 1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := filepath.Join(dir, segmentFiles(t, dir)[0])
	data, _ := os.ReadFile(path)
	data[0] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, _, err := replica.OpenWAL(dir, walHdr, replica.WALOptions{}); err == nil {
		t.Fatal("OpenWAL over a corrupt first header succeeded, want hard error")
	}
}

func TestWALStrayFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "backup.wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replica.OpenWAL(dir, walHdr, replica.WALOptions{}); err == nil {
		t.Fatal("OpenWAL over a non-numeric .wal file succeeded, want error")
	}
	// Non-.wal files are someone else's business and ignored.
	dir2 := t.TempDir()
	os.WriteFile(filepath.Join(dir2, "README"), []byte("x"), 0o644)
	mustOpenWAL(t, dir2, walHdr, replica.WALOptions{})
}

func TestWALClosedAndSeqChecks(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	f := walFrames(t, walHdr, 1, 2)
	if err := w.Append(2, f[1]); err == nil {
		t.Fatal("Append(2) on a fresh WAL succeeded, want seq error")
	}
	if err := w.Append(1, f[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Append(2, f[1]); err == nil {
		t.Fatal("Append on a closed WAL succeeded, want error")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestWALFsyncIntervalAndExplicitSync(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpenWAL(t, dir, walHdr, replica.WALOptions{
		Fsync: replica.FsyncInterval, SyncEvery: time.Millisecond,
	})
	for i, f := range walFrames(t, walHdr, 1, 5) {
		if err := w.Append(uint64(i+1), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // let the flush loop tick at least once
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := mustOpenWAL(t, dir, walHdr, replica.WALOptions{})
	if rec.LastSeq != 5 {
		t.Fatalf("recovered last seq %d, want 5", rec.LastSeq)
	}
}

// TestWALLogSpillAndRestore drives the WAL the way hybridserve does:
// through a Log with an attached WAL, fed by a Recorder journaling a
// real store — then recovers and proves RestoreLog + ReplayRaw rebuild
// an id-identical writer at the same epoch and cursor.
func TestWALLogSpillAndRestore(t *testing.T) {
	dir := t.TempDir()
	seed := uint64(5)
	data := denseReplayData(900, seed)
	build := func(pts []vector.Dense, s uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL2(replayDim, 2*replayRadius),
			Distance: distance.L2,
			Radius:   replayRadius,
			K:        7,
			Seed:     s,
		})
	}
	writer, err := shard.New(data[:600], 3, seed, build)
	if err != nil {
		t.Fatal(err)
	}
	hdr := persist.DeltaHeader{Epoch: 99, Metric: persist.MetricL2, Dim: replayDim}
	log := replica.NewLog(hdr, 0)
	w, _ := mustOpenWAL(t, dir, hdr, replica.WALOptions{Fsync: replica.FsyncOff})
	log.AttachWAL(w)
	writer.SetJournal(replica.NewRecorder[vector.Dense](log))

	if _, err := writer.Append(data[600:700]); err != nil {
		t.Fatal(err)
	}
	writer.Delete([]int32{3, 17, 612})
	if _, err := writer.Compact(0); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(data[700:750]); err != nil {
		t.Fatal(err)
	}
	// SyncJournal reaches the WAL through the shard's journal hook.
	if err := writer.SyncJournal(); err != nil {
		t.Fatalf("SyncJournal: %v", err)
	}
	liveSeq := log.Seq()
	w.Close() // simulated crash; FsyncOff means SyncJournal did the flushing

	// Recover and restore: same epoch, same cursor, same frames.
	w2, rec := mustOpenWAL(t, dir, hdr, replica.WALOptions{})
	defer w2.Close()
	if rec.Epoch != 99 || rec.LastSeq != liveSeq {
		t.Fatalf("recovered epoch %d seq %d, want 99/%d", rec.Epoch, rec.LastSeq, liveSeq)
	}
	liveFrames, _, err := log.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Frames, liveFrames) {
		t.Fatal("WAL frames differ from the in-memory log")
	}

	restored := replica.RestoreLog(hdr, 0, rec.FirstSeq, rec.Frames)
	if restored.Seq() != liveSeq || restored.Epoch() != 99 {
		t.Fatalf("RestoreLog cursor %d epoch %d, want %d/99", restored.Seq(), restored.Epoch(), liveSeq)
	}
	gotFrames, _, err := restored.Since(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFrames, liveFrames) {
		t.Fatal("restored log serves different frames")
	}

	// Rebuild the base deterministically and replay the recovered
	// frames: the warm-restarted writer must answer id-identically.
	fresh, err := shard.New(data[:600], 3, seed, build)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetAutoCompact(1)
	applied, err := replica.ReplayRaw(fresh, hdr, rec.Frames)
	if err != nil {
		t.Fatalf("ReplayRaw: %v", err)
	}
	if applied != len(rec.Frames) {
		t.Fatalf("ReplayRaw applied %d of %d frames", applied, len(rec.Frames))
	}
	if fresh.N() != writer.N() || fresh.Deleted() != writer.Deleted() {
		t.Fatalf("restored N=%d Deleted=%d, writer N=%d Deleted=%d",
			fresh.N(), fresh.Deleted(), writer.N(), writer.Deleted())
	}
	answered := 0
	for qi, q := range data[:24] {
		want, _ := writer.Query(q)
		got, _ := fresh.Query(q)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: restored %v, writer %v", qi, got, want)
		}
		answered += len(want)
	}
	if answered == 0 {
		t.Fatal("no query returned any neighbor; the check is vacuous")
	}
}

// TestWALRestoreLogSeqContinuity: RestoreLog at a promoted cursor (no
// frames, first > 1) serves Since correctly and records from there.
func TestWALRestoreLogAtPromotedCursor(t *testing.T) {
	l := replica.RestoreLog(walHdr, 0, 51, nil)
	if l.Seq() != 50 {
		t.Fatalf("Seq = %d, want 50", l.Seq())
	}
	if _, _, err := l.Since(10, 0); !errors.Is(err, replica.ErrTrimmed) {
		t.Fatalf("Since(10) on a log starting at 51: %v, want ErrTrimmed", err)
	}
	frames, last, err := l.Since(50, 0)
	if err != nil || len(frames) != 0 || last != 50 {
		t.Fatalf("Since(50) = (%d frames, %d, %v), want (0, 50, nil)", len(frames), last, err)
	}
}

func TestWALLogErrorsCounter(t *testing.T) {
	log := replica.NewLog(walHdr, 0)
	rec := replica.NewRecorder[vector.Dense](log)
	if log.Errors() != 0 {
		t.Fatalf("fresh log Errors = %d", log.Errors())
	}
	rec.JournalDelete(nil) // "empty delta id list" encode failure latches
	if log.Err() == nil {
		t.Fatal("empty delete did not latch the log")
	}
	if log.Errors() != 1 {
		t.Fatalf("Errors = %d after the latching failure, want 1", log.Errors())
	}
	rec.JournalDelete([]int32{1}) // refused by the latch: also a lost frame
	if log.Errors() != 2 {
		t.Fatalf("Errors = %d after a refused record, want 2", log.Errors())
	}
}
