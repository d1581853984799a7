package persist

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/vector"
)

// writeDeltaStream encodes a header plus frames into one byte stream.
func writeDeltaStream[P any](t *testing.T, h DeltaHeader, frames []DeltaFrame[P]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDeltaHeader(&buf, h); err != nil {
		t.Fatalf("WriteDeltaHeader: %v", err)
	}
	for _, f := range frames {
		b, err := EncodeDeltaFrame(h, f)
		if err != nil {
			t.Fatalf("EncodeDeltaFrame(seq %d): %v", f.Seq, err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// decodeStream decodes a whole in-memory delta stream: the header,
// then frames with contiguous sequence numbers until the bytes run out.
// It stops at the first error, returning the frames decoded before it.
func decodeStream[P any](data []byte, metric string) (DeltaHeader, []DeltaFrame[P], error) {
	h, off, err := ReadDeltaHeader(bytes.NewReader(data))
	if err != nil {
		return h, nil, err
	}
	dd, err := NewDeltaDecoder[P](h, metric)
	if err != nil {
		return h, nil, err
	}
	var out []DeltaFrame[P]
	var want uint64 // the first frame may carry any seq
	for b := data[off:]; len(b) > 0; {
		f, n, err := dd.Decode(b, want)
		if err != nil {
			return h, out, err
		}
		out = append(out, f)
		want = f.Seq + 1
		b = b[n:]
	}
	return h, out, nil
}

// readAll decodes every frame of a stream, failing the test on any
// error.
func readAll[P any](t *testing.T, data []byte, metric string) (DeltaHeader, []DeltaFrame[P]) {
	t.Helper()
	h, out, err := decodeStream[P](data, metric)
	if err != nil {
		t.Fatalf("decode (after %d frames): %v", len(out), err)
	}
	return h, out
}

// checkFrameBounds decodes each frame on its own, under its own seq and
// under the wildcard 0, and requires the decoder to consume exactly the
// bytes the encoder wrote.
func checkFrameBounds[P any](t *testing.T, h DeltaHeader, frames []DeltaFrame[P]) {
	t.Helper()
	dd, err := NewDeltaDecoder[P](h, h.Metric)
	if err != nil {
		t.Fatalf("NewDeltaDecoder: %v", err)
	}
	for _, f := range frames {
		b, err := EncodeDeltaFrame(h, f)
		if err != nil {
			t.Fatalf("EncodeDeltaFrame(seq %d): %v", f.Seq, err)
		}
		for _, want := range []uint64{f.Seq, 0} {
			got, n, err := dd.Decode(b, want)
			if err != nil || n != len(b) || !reflect.DeepEqual(got, f) {
				t.Fatalf("Decode(seq %d, want %d) = %+v over %d bytes, %v; encoder wrote %d bytes", f.Seq, want, got, n, err, len(b))
			}
		}
	}
}

func TestDeltaRoundTripDense(t *testing.T) {
	h := DeltaHeader{Epoch: 42, Metric: MetricL2, Dim: 4}
	frames := []DeltaFrame[vector.Dense]{
		{Seq: 1, Kind: DeltaAppend, Shard: 2, Base: 100, Points: denseData(5, 4, 7)},
		{Seq: 2, Kind: DeltaDelete, IDs: []int32{3, 17, 101}},
		{Seq: 3, Kind: DeltaCompact, Shard: 2, IDs: []int32{3, 101}},
		{Seq: 4, Kind: DeltaAppend, Shard: 0, Base: 105, Points: denseData(1, 4, 9)},
	}
	checkFrameBounds(t, h, frames)
	data := writeDeltaStream(t, h, frames)
	gotH, got := readAll[vector.Dense](t, data, MetricL2)
	if gotH != h {
		t.Fatalf("header round-trip: got %+v, want %+v", gotH, h)
	}
	if !reflect.DeepEqual(got, frames) {
		t.Fatalf("frames round-trip:\n got %+v\nwant %+v", got, frames)
	}
}

func TestDeltaRoundTripBinary(t *testing.T) {
	h := DeltaHeader{Epoch: 7, Metric: MetricHamming, Dim: 96}
	frames := []DeltaFrame[vector.Binary]{
		{Seq: 1, Kind: DeltaAppend, Shard: 0, Base: 0, Points: binaryData(3, 96, 5)},
		{Seq: 2, Kind: DeltaDelete, IDs: []int32{1}},
	}
	checkFrameBounds(t, h, frames)
	data := writeDeltaStream(t, h, frames)
	_, got := readAll[vector.Binary](t, data, MetricHamming)
	if !reflect.DeepEqual(got, frames) {
		t.Fatalf("frames round-trip:\n got %+v\nwant %+v", got, frames)
	}
}

func TestDeltaRoundTripSparse(t *testing.T) {
	h := DeltaHeader{Epoch: 1, Metric: MetricCosine, Dim: 24}
	frames := []DeltaFrame[vector.Sparse]{
		{Seq: 1, Kind: DeltaAppend, Shard: 1, Base: 9, Points: sparseData(4, 24, 5, 3)},
	}
	checkFrameBounds(t, h, frames)
	data := writeDeltaStream(t, h, frames)
	_, got := readAll[vector.Sparse](t, data, MetricCosine)
	if !reflect.DeepEqual(got, frames) {
		t.Fatalf("frames round-trip:\n got %+v\nwant %+v", got, frames)
	}
}

// TestDeltaBitFlips flips every byte of a valid stream in turn; the
// decoder must reject the damage (or, for a handful of don't-care bits
// like an epoch flip, still decode cleanly) — and must never panic.
func TestDeltaBitFlips(t *testing.T) {
	h := DeltaHeader{Epoch: 3, Metric: MetricL2, Dim: 3}
	frames := []DeltaFrame[vector.Dense]{
		{Seq: 1, Kind: DeltaAppend, Shard: 0, Base: 0, Points: denseData(2, 3, 1)},
		{Seq: 2, Kind: DeltaDelete, IDs: []int32{0}},
	}
	data := writeDeltaStream(t, h, frames)
	for off := range data {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x80
		decodeStream[vector.Dense](mut, "") // an error or a clean decode — fine
	}
}

// TestDeltaFrameCRCCoversSeq proves the deliberate deviation from the
// snapshot section discipline: flipping a bit in the seq field — not
// the payload — must fail the checksum.
func TestDeltaFrameCRCCoversSeq(t *testing.T) {
	h := DeltaHeader{Epoch: 1, Metric: MetricL2, Dim: 2}
	frame, err := EncodeDeltaFrame(h, DeltaFrame[vector.Dense]{Seq: 2, Kind: DeltaDelete, IDs: []int32{5}})
	if err != nil {
		t.Fatal(err)
	}
	frame[4] ^= 0x01 // seq 2 → 3, which only the checksum can tell
	dd, err := NewDeltaDecoder[vector.Dense](h, MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dd.Decode(frame, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("seq bit flip: got %v, want ErrCorrupt", err)
	}
}

func TestDeltaSequenceGap(t *testing.T) {
	h := DeltaHeader{Epoch: 1, Metric: MetricL2, Dim: 2}
	frames := []DeltaFrame[vector.Dense]{
		{Seq: 1, Kind: DeltaDelete, IDs: []int32{1}},
		{Seq: 3, Kind: DeltaDelete, IDs: []int32{2}}, // gap: 2 missing
	}
	data := writeDeltaStream(t, h, frames)
	if _, got, err := decodeStream[vector.Dense](data, MetricL2); len(got) != 1 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sequence gap: decoded %d frames, %v; want 1 frame, then ErrCorrupt", len(got), err)
	}
}

func TestDeltaTruncation(t *testing.T) {
	h := DeltaHeader{Epoch: 1, Metric: MetricL2, Dim: 4}
	frames := []DeltaFrame[vector.Dense]{
		{Seq: 1, Kind: DeltaAppend, Shard: 0, Base: 0, Points: denseData(4, 4, 2)},
	}
	data := writeDeltaStream(t, h, frames)
	for cut := 1; cut < len(data); cut++ {
		if _, got, _ := decodeStream[vector.Dense](data[:cut], MetricL2); len(got) != 0 {
			t.Fatalf("truncation at %d/%d decoded a frame", cut, len(data))
		}
	}
}

func TestDeltaMetricMismatch(t *testing.T) {
	h := DeltaHeader{Epoch: 1, Metric: MetricL2, Dim: 2}
	if _, err := NewDeltaDecoder[vector.Dense](h, MetricAngular); !errors.Is(err, ErrMetric) {
		t.Fatalf("metric mismatch: got %v, want ErrMetric", err)
	}
	if _, err := NewDeltaDecoder[vector.Binary](h, ""); err == nil {
		t.Fatal("point-type mismatch decoded")
	}
}

func TestDeltaEncodeRejectsBadFrames(t *testing.T) {
	h := DeltaHeader{Epoch: 1, Metric: MetricL2, Dim: 2}
	bad := []DeltaFrame[vector.Dense]{
		{Seq: 0, Kind: DeltaDelete, IDs: []int32{1}},                      // seq 0
		{Seq: 1, Kind: DeltaDelete, IDs: nil},                             // empty ids
		{Seq: 1, Kind: DeltaDelete, IDs: []int32{5, 3}},                   // unsorted
		{Seq: 1, Kind: DeltaDelete, IDs: []int32{3, 3}},                   // duplicate
		{Seq: 1, Kind: DeltaAppend, Points: nil},                          // empty append
		{Seq: 1, Kind: DeltaAppend, Base: -1, Points: denseData(1, 2, 1)}, // negative base
		{Seq: 1, Kind: 99, IDs: []int32{1}},                               // unknown kind
	}
	for i, f := range bad {
		if _, err := EncodeDeltaFrame(h, f); err == nil {
			t.Errorf("bad frame %d encoded", i)
		}
	}
}
