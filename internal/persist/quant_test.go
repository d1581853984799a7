package persist

// The optional "quan" section: round trip (mode restored, answers
// id-identical, re-encode byte-stable), absence for exact-only stores
// (their snapshots must not change by a byte), corruption rejection,
// and the L2-only rule.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/shard"
	"repro/internal/vector"
)

// buildQuantL2 builds a plain L2 index over the SQ8-quantized store.
func buildQuantL2(t *testing.T, mode pointstore.Mode) *core.Index[vector.Dense] {
	t.Helper()
	c := cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4)
	c.Store = pointstore.DenseL2Builder(mode)
	ix, err := core.NewIndex(denseData(tn, tdim, 31), c)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestQuantSectionRoundTrip(t *testing.T) {
	ix := buildQuantL2(t, pointstore.ModeSQ8)
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricL2, ix); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := readIndex[vector.Dense](bytes.NewReader(buf.Bytes()), MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Quant != "sq8" {
		t.Fatalf("meta.Quant = %q, want sq8", meta.Quant)
	}
	if got := loaded.StoreStats().Quant; got != "sq8" {
		t.Fatalf("restored store mode = %q, want sq8", got)
	}
	for qi, q := range denseData(tq, tdim, 32) {
		a, _ := ix.Query(q)
		b, _ := loaded.Query(q)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("query %d: original %v != restored %v", qi, a, b)
		}
	}
	// Re-encode must be byte-identical with the section present.
	var buf2 bytes.Buffer
	if _, err := Write(&buf2, MetricL2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("quantized snapshot re-encode differs")
	}
}

// TestQuantSectionAdditive pins the byte-compatibility promise from two
// sides: a quant-off index writes no "quan" bytes at all, and stripping
// the section from a quantized snapshot yields exactly the quant-off
// snapshot — the codes are derived state, never serialized.
func TestQuantSectionAdditive(t *testing.T) {
	var off, sq8 bytes.Buffer
	if _, err := Write(&off, MetricL2, buildQuantL2(t, pointstore.ModeOff)); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(off.Bytes(), []byte("quan")) {
		t.Fatal("quant-off snapshot contains a quan section")
	}
	if m, _, err := readIndex[vector.Dense](bytes.NewReader(off.Bytes()), MetricL2); err != nil {
		t.Fatal(err)
	} else if got := m.StoreStats().Quant; got != "off" {
		t.Fatalf("quant-off restore mode = %q, want off", got)
	}

	if _, err := Write(&sq8, MetricL2, buildQuantL2(t, pointstore.ModeSQ8)); err != nil {
		t.Fatal(err)
	}
	snap := sq8.Bytes()
	start := bytes.Index(snap, []byte("quan"))
	if start < 0 {
		t.Fatal("no quan section")
	}
	stripped := append(append([]byte(nil), snap[:start]...), snap[start+12+1+4:]...) // header + payload(1) + crc
	if !bytes.Equal(stripped, off.Bytes()) {
		t.Fatal("quantized snapshot minus quan section != quant-off snapshot")
	}
}

func TestQuantSectionCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricL2, buildQuantL2(t, pointstore.ModeSQ8)); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	off := bytes.Index(snap, []byte("quan")) + 12 // tag[4] + length u64

	// An unknown mode value is invalid even with a fixed CRC.
	mut := append([]byte(nil), snap...)
	mut[off] = 7
	binary.LittleEndian.PutUint32(mut[off+1:], crc32.ChecksumIEEE(mut[off:off+1]))
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mode=7 section: err = %v, want ErrCorrupt", err)
	}
	// Mode "off" must never be recorded (absence encodes it).
	mut = append([]byte(nil), snap...)
	mut[off] = 0
	binary.LittleEndian.PutUint32(mut[off+1:], crc32.ChecksumIEEE(mut[off:off+1]))
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mode=0 section: err = %v, want ErrCorrupt", err)
	}
	// A bit flip must fail the CRC.
	mut = append([]byte(nil), snap...)
	mut[off] ^= 0x01
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped quan payload: err = %v, want ErrCorrupt", err)
	}
}

// TestQuantRejectedForNonL2 splices a well-formed quan section into a
// Hamming snapshot: the reader must refuse it — only the L2 store has a
// quantized encoding.
func TestQuantRejectedForNonL2(t *testing.T) {
	c := cfg[vector.Binary](lsh.NewBitSampling(64), distance.Hamming, 6)
	ix, err := core.NewIndex(binaryData(100, 64, 33), c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	at := bytes.Index(snap, []byte("pnts"))
	if at < 0 {
		t.Fatal("no pnts section")
	}
	var sec bytes.Buffer
	if err := writeQuantSection(&sec, pointstore.ModeSQ8); err != nil {
		t.Fatal(err)
	}
	mut := append(append(append([]byte(nil), snap[:at]...), sec.Bytes()...), snap[at:]...)
	if _, _, err := readIndex[vector.Binary](bytes.NewReader(mut), MetricHamming); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hamming snapshot with quan section: err = %v, want ErrCorrupt", err)
	}
}

// TestShardedQuantRoundTrip pins the structure-level flow: every shard
// writes its own quan section, and the restored topology reports the
// mode in its aggregated store stats.
func TestShardedQuantRoundTrip(t *testing.T) {
	s, err := shard.New(denseData(tn, tdim, 34), 3, 35, func(part []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		c := cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4)
		c.Seed = seed
		c.Store = pointstore.DenseL2Builder(pointstore.ModeSQ8)
		return core.NewIndex(part, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteSharded(&buf, MetricL2, s); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("quan")); got != 3 {
		t.Fatalf("sharded snapshot has %d quan sections, want 3 (one per shard)", got)
	}
	loaded, meta, err := ReadSharded[vector.Dense](bytes.NewReader(buf.Bytes()), MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Quant != "sq8" {
		t.Fatalf("meta.Quant = %q, want sq8", meta.Quant)
	}
	if got := loaded.Stats().Store.Quant; got != "sq8" {
		t.Fatalf("restored topology store mode = %q, want sq8", got)
	}
	for qi, q := range denseData(40, tdim, 36) {
		a, _ := s.Query(q)
		b, _ := loaded.Query(q)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("query %d: original %v != restored %v", qi, a, b)
		}
	}
}
