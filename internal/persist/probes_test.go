package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/vector"
)

func buildMultiProbe(t *testing.T, probes int) *multiprobe.Index {
	t.Helper()
	ix, err := core.NewIndex(denseData(32, 4, 11), core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(4, 0.8),
		Distance:     distance.L2,
		Radius:       0.4,
		L:            3,
		HLLRegisters: 16,
		HLLThreshold: 2,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := multiprobe.FromCore(ix, probes)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

// locateProbeSection finds the "prob" section in a snapshot and returns
// the offset of its payload.
func locateProbeSection(t *testing.T, snap []byte) int {
	t.Helper()
	i := bytes.Index(snap, []byte("prob"))
	if i < 0 {
		t.Fatal("snapshot has no prob section")
	}
	return i + 12 // tag[4] + length u64
}

func TestProbeSectionRoundTrip(t *testing.T) {
	mp := buildMultiProbe(t, 9)
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricL2, mp); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := readMultiProbe(bytes.NewReader(buf.Bytes()), MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Probes != 9 || loaded.Probes() != 9 {
		t.Fatalf("round trip probes = %d/%d, want 9", meta.Probes, loaded.Probes())
	}
	q := make(vector.Dense, 4)
	want, _ := mp.Query(q)
	got, _ := loaded.Query(q)
	if len(want) != len(got) {
		t.Fatalf("loaded answered %d ids, want %d", len(got), len(want))
	}
	// Re-encode must be byte-identical (determinism holds with the
	// optional section present).
	var buf2 bytes.Buffer
	if _, err := Write(&buf2, MetricL2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("multi-probe snapshot re-encode differs")
	}
}

func TestProbeSectionCorruption(t *testing.T) {
	mp := buildMultiProbe(t, 9)
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricL2, mp); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	off := locateProbeSection(t, snap)

	// Zero probes inside the section is invalid even with a fixed CRC.
	mut := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(mut[off:], 0)
	binary.LittleEndian.PutUint32(mut[off+4:], crc32.ChecksumIEEE(mut[off:off+4]))
	if _, _, err := readMultiProbe(bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("probes=0 section: err = %v, want ErrCorrupt", err)
	}

	// A bit flip in the payload must fail the CRC.
	mut = append([]byte(nil), snap...)
	mut[off] ^= 0x01
	if _, _, err := readMultiProbe(bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped probe payload: err = %v, want ErrCorrupt", err)
	}
}

func TestProbeReaderMismatch(t *testing.T) {
	mp := buildMultiProbe(t, 9)
	var mpBuf bytes.Buffer
	if _, err := Write(&mpBuf, MetricL2, mp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(mpBuf.Bytes()), MetricL2); !errors.Is(err, ErrProbeMode) {
		t.Fatalf("plain reader on multi-probe snapshot: err = %v, want ErrProbeMode", err)
	}

	var plainBuf bytes.Buffer
	if _, err := Write(&plainBuf, MetricL2, mp.Core()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMultiProbe(bytes.NewReader(plainBuf.Bytes()), MetricL2); !errors.Is(err, ErrProbeMode) {
		t.Fatalf("multi-probe reader on plain snapshot: err = %v, want ErrProbeMode", err)
	}

	// The "prob" section must not change the plain sections: stripping
	// it yields exactly the plain snapshot of the wrapped core.
	snap := mpBuf.Bytes()
	start := bytes.Index(snap, []byte("prob"))
	if start < 0 {
		t.Fatal("no prob section")
	}
	stripped := append(append([]byte(nil), snap[:start]...), snap[start+12+4+4:]...) // header + payload(4) + crc
	if !bytes.Equal(stripped, plainBuf.Bytes()) {
		t.Fatal("multi-probe snapshot minus prob section != plain snapshot")
	}
}
