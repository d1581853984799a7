package replica_test

import (
	"errors"
	"testing"

	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/vector"
)

func testHeader() persist.DeltaHeader {
	return persist.DeltaHeader{Epoch: 7, Metric: persist.MetricL2, Dim: 4}
}

func pts(n int, base float32) []vector.Dense {
	out := make([]vector.Dense, n)
	for i := range out {
		out[i] = vector.Dense{base + float32(i), 0, 0, 0}
	}
	return out
}

// decodeFrames decodes encoded frames one by one under hdr, each
// following the one before, and returns the decoded frames.
func decodeFrames[P any](t *testing.T, hdr persist.DeltaHeader, frames [][]byte) []persist.DeltaFrame[P] {
	t.Helper()
	dd, err := persist.NewDeltaDecoder[P](hdr, hdr.Metric)
	if err != nil {
		t.Fatalf("NewDeltaDecoder: %v", err)
	}
	out := make([]persist.DeltaFrame[P], len(frames))
	var want uint64
	for i, b := range frames {
		f, n, err := dd.Decode(b, want)
		if err != nil || n != len(b) {
			t.Fatalf("Decode(frame %d) took %d of %d bytes: %v", i, n, len(b), err)
		}
		out[i] = f
		want = f.Seq + 1
	}
	return out
}

func TestLogRecordAndSince(t *testing.T) {
	log := replica.NewLog(testHeader(), 0)
	rec := replica.NewRecorder[vector.Dense](log)

	if got := log.Seq(); got != 0 {
		t.Fatalf("empty log Seq = %d, want 0", got)
	}
	rec.JournalAppend(0, 0, pts(3, 0))
	rec.JournalDelete([]int32{1})
	rec.JournalCompact(0, []int32{1})
	if got := log.Seq(); got != 3 {
		t.Fatalf("Seq = %d, want 3", got)
	}

	frames, last, err := log.Since(0, 0)
	if err != nil || len(frames) != 3 || last != 3 {
		t.Fatalf("Since(0) = %d frames, last %d, err %v; want 3, 3, nil", len(frames), last, err)
	}
	decoded := decodeFrames[vector.Dense](t, log.Header(), frames)
	if decoded[0].Kind != persist.DeltaAppend || decoded[0].Seq != 1 ||
		decoded[0].Shard != 0 || decoded[0].Base != 0 || len(decoded[0].Points) != 3 {
		t.Fatalf("frame 1 = %+v, want append of 3 points at base 0", decoded[0])
	}
	if decoded[1].Kind != persist.DeltaDelete || len(decoded[1].IDs) != 1 || decoded[1].IDs[0] != 1 {
		t.Fatalf("frame 2 = %+v, want delete of id 1", decoded[1])
	}
	if decoded[2].Kind != persist.DeltaCompact || decoded[2].Shard != 0 || decoded[2].IDs[0] != 1 {
		t.Fatalf("frame 3 = %+v, want compact of id 1 on shard 0", decoded[2])
	}

	// Tail reads and batching.
	frames, last, err = log.Since(2, 0)
	if err != nil || len(frames) != 1 || last != 3 {
		t.Fatalf("Since(2) = %d frames, last %d, err %v; want 1, 3, nil", len(frames), last, err)
	}
	frames, last, err = log.Since(3, 0)
	if err != nil || len(frames) != 0 || last != 3 {
		t.Fatalf("Since(3) = %d frames, last %d, err %v; want 0, 3, nil", len(frames), last, err)
	}
	frames, last, err = log.Since(0, 2)
	if err != nil || len(frames) != 2 || last != 2 {
		t.Fatalf("Since(0, max 2) = %d frames, last %d, err %v; want 2, 2, nil", len(frames), last, err)
	}
}

func TestLogTrimsToCap(t *testing.T) {
	log := replica.NewLog(testHeader(), 4)
	rec := replica.NewRecorder[vector.Dense](log)
	for i := 0; i < 10; i++ {
		rec.JournalAppend(0, int32(i), pts(1, float32(i)))
	}
	if got := log.Seq(); got != 10 {
		t.Fatalf("Seq = %d, want 10", got)
	}
	if _, _, err := log.Since(0, 0); !errors.Is(err, replica.ErrTrimmed) {
		t.Fatalf("Since(0) after trim: err = %v, want ErrTrimmed", err)
	}
	// Cursor 5 was trimmed too (frames 6..10 retained); cursor 6 is fine.
	if _, _, err := log.Since(5, 0); !errors.Is(err, replica.ErrTrimmed) {
		t.Fatalf("Since(5) after trim: err = %v, want ErrTrimmed", err)
	}
	frames, last, err := log.Since(6, 0)
	if err != nil || len(frames) != 4 || last != 10 {
		t.Fatalf("Since(6) = %d frames, last %d, err %v; want 4, 10, nil", len(frames), last, err)
	}
	if got := decodeFrames[vector.Dense](t, log.Header(), frames); got[0].Seq != 7 {
		t.Fatalf("first retained frame seq = %d, want 7", got[0].Seq)
	}
}

// TestLogRecordAtCapAllocatesO1: once the log holds its cap of frames,
// recording one more allocates no more than recording into a log with
// room (the trim reslices; it copies no frame list), and a cursor the
// trim passed still gets ErrTrimmed.
func TestLogRecordAtCapAllocatesO1(t *testing.T) {
	const capFrames, runs = 64, 500
	batch := pts(1, 0)
	allocs := func(log *replica.Log) float64 {
		rec := replica.NewRecorder[vector.Dense](log)
		return testing.AllocsPerRun(runs, func() { rec.JournalAppend(0, 0, batch) })
	}
	full := replica.NewLog(testHeader(), capFrames)
	rec := replica.NewRecorder[vector.Dense](full)
	for range capFrames {
		rec.JournalAppend(0, 0, batch)
	}
	roomy := replica.NewLog(testHeader(), 2*runs)
	if atCap, withRoom := allocs(full), allocs(roomy); atCap > withRoom {
		t.Fatalf("a record at the cap allocates %v times, one with room %v", atCap, withRoom)
	}
	seq := full.Seq()
	if _, _, err := full.Since(seq-capFrames-1, 0); !errors.Is(err, replica.ErrTrimmed) {
		t.Fatalf("Since(%d) after trims: err = %v, want ErrTrimmed", seq-capFrames-1, err)
	}
	frames, last, err := full.Since(seq-capFrames, 0)
	if err != nil || len(frames) != capFrames || last != seq {
		t.Fatalf("Since(%d) = %d frames, last %d, err %v; want %d, %d, nil", seq-capFrames, len(frames), last, err, capFrames, seq)
	}
	if got := decodeFrames[vector.Dense](t, full.Header(), frames); got[0].Seq != seq-capFrames+1 {
		t.Fatalf("first retained frame seq = %d, want %d", got[0].Seq, seq-capFrames+1)
	}
}

func TestLogStickyEncodeError(t *testing.T) {
	log := replica.NewLog(testHeader(), 0)
	rec := replica.NewRecorder[vector.Dense](log)
	rec.JournalAppend(0, 0, pts(1, 0))

	rec.JournalDelete(nil) // unencodable: a delete frame must carry ids
	if log.Err() == nil {
		t.Fatal("Err = nil after unencodable frame, want sticky error")
	}
	if got := log.Seq(); got != 1 {
		t.Fatalf("Seq = %d after failed encode, want 1 (no hole)", got)
	}
	// Latched: later valid records are refused, Since reports the error.
	rec.JournalAppend(0, 1, pts(1, 1))
	if got := log.Seq(); got != 1 {
		t.Fatalf("Seq = %d after latched record, want 1", got)
	}
	if _, _, err := log.Since(0, 0); err == nil {
		t.Fatal("Since on a latched log: err = nil, want the sticky error")
	}
}
