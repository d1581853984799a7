package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/vector"
)

func TestWALSegmentHeaderRoundTrip(t *testing.T) {
	h := WALSegmentHeader{
		Delta:    DeltaHeader{Epoch: 42, Metric: MetricCosine, Dim: 17},
		FirstSeq: 9001,
	}
	var buf bytes.Buffer
	if err := WriteWALSegmentHeader(&buf, h); err != nil {
		t.Fatalf("WriteWALSegmentHeader: %v", err)
	}
	if got, want := buf.Len(), WALSegmentHeaderSize(h.Delta.Metric); got != want {
		t.Fatalf("encoded header is %d bytes, WALSegmentHeaderSize says %d", got, want)
	}
	// Trailing bytes must be left unread: frames follow the header.
	buf.WriteString("frame bytes")
	r := bytes.NewReader(buf.Bytes())
	got, n, err := ReadWALSegmentHeader(r)
	if err != nil {
		t.Fatalf("ReadWALSegmentHeader: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if n != WALSegmentHeaderSize(h.Delta.Metric) {
		t.Fatalf("consumed %d bytes, want %d", n, WALSegmentHeaderSize(h.Delta.Metric))
	}
	rest, _ := io.ReadAll(r)
	if string(rest) != "frame bytes" {
		t.Fatalf("header read consumed frame bytes: remainder %q", rest)
	}
}

func TestWALSegmentHeaderWriteRejects(t *testing.T) {
	var buf bytes.Buffer
	bad := []WALSegmentHeader{
		{Delta: DeltaHeader{Metric: MetricL2, Dim: 0}, FirstSeq: 1},       // dim too small
		{Delta: DeltaHeader{Metric: MetricL2, Dim: 1 << 30}, FirstSeq: 1}, // dim too large
		{Delta: DeltaHeader{Metric: MetricL2, Dim: 4}, FirstSeq: 0},       // first-seq zero
	}
	for i, h := range bad {
		if err := WriteWALSegmentHeader(&buf, h); err == nil {
			t.Errorf("case %d: WriteWALSegmentHeader(%+v) succeeded, want error", i, h)
		}
	}
}

func TestWALSegmentHeaderReadCorruption(t *testing.T) {
	good := WALSegmentHeader{Delta: DeltaHeader{Epoch: 7, Metric: MetricL2, Dim: 8}, FirstSeq: 3}
	var buf bytes.Buffer
	if err := WriteWALSegmentHeader(&buf, good); err != nil {
		t.Fatalf("WriteWALSegmentHeader: %v", err)
	}
	base := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrBadMagic},
		{"magic flipped", func(b []byte) []byte { b[0] ^= 0x40; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[14:], WALSegVersion+1)
			return b
		}, ErrVersion},
		{"first-seq zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[14+4+8:], 0)
			return b
		}, ErrCorrupt},
		{"truncated mid-header", func(b []byte) []byte { return b[:20] }, ErrCorrupt},
		{"metric length overclaims", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[14+4+8+8:], 9999)
			return b
		}, ErrCorrupt},
		{"dim zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], 0)
			return b
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), base...))
			_, _, err := ReadWALSegmentHeader(bytes.NewReader(b))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestScanDeltaFrameRejects(t *testing.T) {
	h := DeltaHeader{Epoch: 3, Metric: MetricL2, Dim: 4}
	frame, err := EncodeDeltaFrame(h, DeltaFrame[vector.Dense]{Seq: 5, Kind: DeltaDelete, IDs: []int32{2}})
	if err != nil {
		t.Fatalf("EncodeDeltaFrame: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSeq uint64
	}{
		{"short header", func(b []byte) []byte { return b[:10] }, 5},
		{"unknown tag", func(b []byte) []byte { b[0] = 'x'; return b }, 5},
		{"seq zero", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[4:], 0)
			return b
		}, 0},
		{"wrong seq", func(b []byte) []byte { return b }, 6},
		{"length overclaims", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 1<<40)
			return b
		}, 5},
		{"torn tail", func(b []byte) []byte { return b[:len(b)-1] }, 5},
		{"payload bit flip", func(b []byte) []byte { b[21] ^= 1; return b }, 5},
		{"crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), frame...))
			if _, err := ScanDeltaFrame(b, tc.wantSeq); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got error %v, want ErrCorrupt", err)
			}
		})
	}

	// Every truncation point must read as corrupt, never as a shorter
	// valid frame (the WAL's torn-tail detection depends on this).
	for cut := 0; cut < len(frame); cut++ {
		if _, err := ScanDeltaFrame(frame[:cut], 5); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}
