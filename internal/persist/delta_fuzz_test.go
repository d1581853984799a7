package persist

import (
	"bytes"
	"testing"

	"repro/internal/vector"
)

// FuzzReadDelta throws arbitrary bytes at the delta-log decoder for
// every point type and requires an error or a valid frame stream —
// never a panic, and never an allocation larger than the input can
// justify (every count is validated against the bytes present, the
// same discipline FuzzReadSnapshot enforces on the snapshot decoder).
//
// The corpus is seeded with valid logs for dense, binary and sparse
// metrics plus truncated and bit-flipped variants, so the fuzzer
// starts deep inside the frame grammar instead of fighting the magic
// check.
func FuzzReadDelta(f *testing.F) {
	seedDeltaCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		drainDelta[vector.Dense](data)
		drainDelta[vector.Binary](data)
		drainDelta[vector.Sparse](data)
	})
}

// drainDelta decodes frames until the bytes run out or the first
// error, accepting the header's own metric so the fuzzer can explore
// every codec.
func drainDelta[P any](data []byte) {
	decodeStream[P](data, "")
}

func seedDeltaCorpus(f *testing.F) {
	f.Helper()
	add := func(b []byte) {
		f.Add(b)
		// Truncations land the fuzzer mid-frame.
		for _, cut := range []int{1, 2, 4} {
			if len(b) > cut {
				f.Add(b[:len(b)/cut])
			}
		}
		// Deterministic bit flips land it past the CRC fast-fail and
		// into the header, tag, seq and payload fields.
		for _, off := range []int{0, len(deltaMagic), len(deltaMagic) + 4, len(b) / 2, len(b) - 2} {
			if off >= 0 && off < len(b) {
				mut := append([]byte(nil), b...)
				mut[off] ^= 0x80
				f.Add(mut)
			}
		}
	}

	stream := func(h DeltaHeader, enc func(buf *bytes.Buffer)) {
		var buf bytes.Buffer
		if err := WriteDeltaHeader(&buf, h); err != nil {
			return
		}
		enc(&buf)
		add(buf.Bytes())
	}

	// Dense L2: append + delete + compact.
	hl2 := DeltaHeader{Epoch: 11, Metric: MetricL2, Dim: 4}
	stream(hl2, func(buf *bytes.Buffer) {
		frames := []DeltaFrame[vector.Dense]{
			{Seq: 1, Kind: DeltaAppend, Shard: 1, Base: 0, Points: denseData(6, 4, 3)},
			{Seq: 2, Kind: DeltaDelete, IDs: []int32{0, 4}},
			{Seq: 3, Kind: DeltaCompact, Shard: 1, IDs: []int32{0, 4}},
		}
		for _, fr := range frames {
			if b, err := EncodeDeltaFrame(hl2, fr); err == nil {
				buf.Write(b)
			}
		}
	})

	// Binary Hamming.
	hham := DeltaHeader{Epoch: 5, Metric: MetricHamming, Dim: 64}
	stream(hham, func(buf *bytes.Buffer) {
		if b, err := EncodeDeltaFrame(hham, DeltaFrame[vector.Binary]{
			Seq: 1, Kind: DeltaAppend, Shard: 0, Base: 2, Points: binaryData(3, 64, 9),
		}); err == nil {
			buf.Write(b)
		}
	})

	// Sparse cosine.
	hcos := DeltaHeader{Epoch: 9, Metric: MetricCosine, Dim: 16}
	stream(hcos, func(buf *bytes.Buffer) {
		if b, err := EncodeDeltaFrame(hcos, DeltaFrame[vector.Sparse]{
			Seq: 1, Kind: DeltaAppend, Shard: 0, Base: 0, Points: sparseData(2, 16, 4, 2),
		}); err == nil {
			buf.Write(b)
		}
	})

	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte(deltaMagic))
	var hdrOnly bytes.Buffer
	WriteDeltaHeader(&hdrOnly, hl2)
	f.Add(hdrOnly.Bytes())
	// A frame header that claims a huge length.
	huge := append([]byte(nil), hdrOnly.Bytes()...)
	huge = append(huge, "appd"...)
	huge = append(huge, 1, 0, 0, 0, 0, 0, 0, 0)                      // seq 1
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0) // absurd length
	f.Add(huge)
}
