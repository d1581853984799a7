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
	"repro/internal/vector"
)

// buildMultiProbe builds the probe tests' index with T = probes (0: the
// classic index over the same tables).
func buildMultiProbe(t *testing.T, probes int) *core.Index[vector.Dense] {
	t.Helper()
	ix, err := core.NewIndex(denseData(32, 4, 11), core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(4, 0.8),
		Distance:     distance.L2,
		Radius:       0.4,
		L:            3,
		HLLRegisters: 16,
		HLLThreshold: 2,
		Seed:         7,
		Probes:       probes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
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
	if meta.Probes != 9 || loaded.Defaults().Probes.N != 9 {
		t.Fatalf("round trip probes = %d/%d, want 9", meta.Probes, loaded.Defaults().Probes.N)
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
	if _, err := Write(&plainBuf, MetricL2, buildMultiProbe(t, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMultiProbe(bytes.NewReader(plainBuf.Bytes()), MetricL2); !errors.Is(err, ErrProbeMode) {
		t.Fatalf("multi-probe reader on plain snapshot: err = %v, want ErrProbeMode", err)
	}

	// The "prob" section must not change the plain sections: stripping
	// it yields exactly the plain snapshot of the same tables.
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

// TestProbeSectionOnNonProbingIndex splices a valid "prob" section into
// a classic Hamming snapshot: bit-sampling hashers cannot probe, so the
// reader must refuse the file as corrupt instead of restoring an index
// whose queries would fail.
func TestProbeSectionOnNonProbingIndex(t *testing.T) {
	ix, err := core.NewIndex(binaryData(tn, 64, 5), cfg[vector.Binary](lsh.NewBitSampling(64), distance.Hamming, 12))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	meta := bytes.Index(snap, []byte("meta"))
	if meta < 0 {
		t.Fatal("snapshot has no meta section")
	}
	end := meta + 12 + int(binary.LittleEndian.Uint64(snap[meta+4:])) + 4 // header + payload + crc
	var prob bytes.Buffer
	if err := writeProbeSection(&prob, 5); err != nil {
		t.Fatal(err)
	}
	spliced := append(append(append([]byte(nil), snap[:end]...), prob.Bytes()...), snap[end:]...)
	if _, _, err := Read[vector.Binary](bytes.NewReader(spliced), MetricHamming); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("probe section on a Hamming snapshot: err = %v, want ErrCorrupt", err)
	}
}
