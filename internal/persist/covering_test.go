package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/shard"
	"repro/internal/vector"
)

// coveringData builds duplicate-heavy binary data: each base point is
// repeated three times, so covering buckets reach the sketch threshold
// and the round trip has sketches to preserve.
func coveringData(n, dim int, seed uint64) []vector.Binary {
	base := binaryData((n+2)/3, dim, seed)
	pts := make([]vector.Binary, 0, n)
	for len(pts) < n {
		pts = append(pts, base[len(pts)%len(base)])
	}
	return pts
}

func buildCoveringIndex(t *testing.T, n int, seed uint64) *covering.Index {
	t.Helper()
	ix, err := covering.New(coveringData(n, 64, seed), 3, covering.Config{
		HLLRegisters: 16,
		HLLThreshold: 3,
		Cost:         core.CostModel{Alpha: 1, Beta: 8},
		Seed:         seed * 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// assertCoveringIdentical requires two covering indexes to answer
// id-for-id identically, with matching strategies and parameters.
func assertCoveringIdentical(t *testing.T, want, got *covering.Index, queries []vector.Binary) {
	t.Helper()
	if got.N() != want.N() || got.Radius() != want.Radius() || got.Dim() != want.Dim() ||
		got.Tables() != want.Tables() || got.Cost() != want.Cost() ||
		got.HLLRegisters() != want.HLLRegisters() || got.HLLThreshold() != want.HLLThreshold() ||
		got.Seed() != want.Seed() {
		t.Fatalf("loaded covering parameters differ: n=%d r=%d dim=%d tables=%d",
			got.N(), got.Radius(), got.Dim(), got.Tables())
	}
	if !slices.Equal(got.Phi(), want.Phi()) {
		t.Fatal("loaded φ differs")
	}
	for qi, q := range queries {
		wids, wstats := want.Query(q)
		gids, gstats := got.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) {
			t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
		}
		if gstats.Strategy != wstats.Strategy || gstats.Collisions != wstats.Collisions {
			t.Fatalf("query %d: strategy/collisions differ (%v/%d vs %v/%d)",
				qi, gstats.Strategy, gstats.Collisions, wstats.Strategy, wstats.Collisions)
		}
	}
}

func TestCoveringRoundTrip(t *testing.T) {
	ix := buildCoveringIndex(t, 60, 3)
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := readCovering(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.CoverRadius != 3 || meta.Metric != MetricHamming || meta.N != 60 ||
		meta.Dim != 64 || meta.L != covering.NumTables(3) {
		t.Fatalf("meta = %+v", meta)
	}
	assertCoveringIdentical(t, ix, loaded, binaryData(25, 64, 99))

	// Re-encoding the decoded index must reproduce the bytes exactly.
	var reenc bytes.Buffer
	if _, err := Write(&reenc, MetricHamming, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), reenc.Bytes()) {
		t.Fatal("re-encoding the decoded covering snapshot does not reproduce its bytes")
	}
}

func TestCoveringReaderMismatch(t *testing.T) {
	// A covering snapshot handed to the plain readers.
	cov := buildCoveringIndex(t, 40, 4)
	var cbuf bytes.Buffer
	if _, err := Write(&cbuf, MetricHamming, cov); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readIndex[vector.Binary](bytes.NewReader(cbuf.Bytes()), MetricHamming); !errors.Is(err, ErrCoverMode) {
		t.Fatalf("plain reader on covering snapshot: err = %v, want ErrCoverMode", err)
	}
	if _, _, err := readMultiProbe(bytes.NewReader(cbuf.Bytes()), MetricL2); !errors.Is(err, ErrCoverMode) {
		t.Fatalf("multi-probe reader on covering snapshot: err = %v, want ErrCoverMode", err)
	}

	// A plain Hamming snapshot handed to the covering reader.
	hix, err := core.NewIndex(binaryData(24, 32, 2), core.Config[vector.Binary]{
		Family:       lsh.NewBitSampling(32),
		Distance:     distance.Hamming,
		Radius:       6,
		L:            3,
		HLLRegisters: 16,
		HLLThreshold: 2,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var hbuf bytes.Buffer
	if _, err := Write(&hbuf, MetricHamming, hix); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCovering(bytes.NewReader(hbuf.Bytes())); !errors.Is(err, ErrCoverMode) {
		t.Fatalf("covering reader on plain snapshot: err = %v, want ErrCoverMode", err)
	}
}

func TestCoveringCorruption(t *testing.T) {
	ix := buildCoveringIndex(t, 40, 5)
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// A bit flip inside the covr payload must fail the CRC.
	mut := slices.Clone(valid)
	mut[len(magic)+5+12+8] ^= 0x40 // header + section header + into the payload
	if _, _, err := readCovering(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	// Truncation anywhere must error, never panic.
	for _, cut := range []int{len(valid) / 4, len(valid) / 2, len(valid) - 3} {
		if _, _, err := readCovering(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// buildShardedCovering builds a 3-shard covering index over
// duplicate-heavy data.
func buildShardedCovering(t *testing.T, n int, seed uint64) (*shard.Sharded[vector.Binary], []vector.Binary) {
	t.Helper()
	data := coveringData(n, 64, seed)
	sh, err := shard.New(data, 3, seed, func(pts []vector.Binary, s uint64) (core.Store[vector.Binary], error) {
		return covering.New(pts, 3, covering.Config{HLLRegisters: 16, HLLThreshold: 3, Seed: s})
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh, data
}

func TestShardedCoveringRoundTrip(t *testing.T) {
	sh, data := buildShardedCovering(t, 66, 6)
	deleted := []int32{1, 5, 9, 30}
	sh.Delete(deleted)

	var buf bytes.Buffer
	if _, err := WriteSharded(&buf, MetricHamming, sh); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := readShardedCovering(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.CoverRadius != 3 || meta.Shards != 3 || meta.N != len(data)-len(deleted) {
		t.Fatalf("meta = %+v", meta)
	}
	if loaded.N() != sh.N() || loaded.Deleted() != sh.Deleted() {
		t.Fatalf("restored N/Deleted = %d/%d, want %d/%d", loaded.N(), loaded.Deleted(), sh.N(), sh.Deleted())
	}
	for qi, q := range binaryData(20, 64, 77) {
		a, _ := sh.Query(q)
		b, _ := loaded.Query(q)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("query %d: restored %v != live %v", qi, b, a)
		}
	}
	// Appends continue from the saved high-water mark: deleted ids stay
	// reserved.
	ids, err := loaded.Append(binaryData(2, 64, 78))
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != int32(len(data)) || ids[1] != int32(len(data))+1 {
		t.Fatalf("appended ids %v, want continuation from %d", ids, len(data))
	}

	// A caller demanding classic shards must see the covering layout
	// refused, and vice versa.
	if err := meta.RequireMode(false, false); !errors.Is(err, ErrCoverMode) {
		t.Fatalf("classic demanded of a covering snapshot: err = %v, want ErrCoverMode", err)
	}
	csh, err := shard.New(data, 2, 9, func(pts []vector.Binary, s uint64) (core.Store[vector.Binary], error) {
		return core.NewIndex(pts, core.Config[vector.Binary]{
			Family: lsh.NewBitSampling(64), Distance: distance.Hamming, Radius: 6,
			L: 3, HLLRegisters: 16, HLLThreshold: 2, Seed: s,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var classic bytes.Buffer
	if _, err := WriteSharded(&classic, MetricHamming, csh); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readShardedCovering(bytes.NewReader(classic.Bytes())); !errors.Is(err, ErrCoverMode) {
		t.Fatalf("covering sharded reader on classic snapshot: err = %v, want ErrCoverMode", err)
	}
}

// TestShardedCoveringSnapshotCompactionEquivalence pins the promise that
// snapshot-time compaction and online compaction are the same rewrite:
// a tombstoned structure and its CompactAll'ed twin serialize to
// byte-identical snapshots.
func TestShardedCoveringSnapshotCompactionEquivalence(t *testing.T) {
	sh, _ := buildShardedCovering(t, 60, 10)
	sh.Delete([]int32{0, 7, 13, 29, 41})

	var tombed bytes.Buffer
	if _, err := WriteSharded(&tombed, MetricHamming, sh); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.CompactAll(); err != nil {
		t.Fatal(err)
	}
	var compacted bytes.Buffer
	if _, err := WriteSharded(&compacted, MetricHamming, sh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tombed.Bytes(), compacted.Bytes()) {
		t.Fatal("snapshot of tombstoned index differs from snapshot after online compaction")
	}
}

// goldenCoveringPath holds the checked-in v1 covering snapshot; like the
// plain golden file it pins the wire layout byte for byte.
const goldenCoveringPath = "testdata/golden-covering-v1.snap"

// buildGoldenCoveringIndex builds the exact index the golden file was
// generated from: fully seeded, so the build is reproducible.
func buildGoldenCoveringIndex(t *testing.T) *covering.Index {
	t.Helper()
	ix, err := covering.New(coveringData(48, 64, 1234), 3, covering.Config{
		HLLRegisters: 16,
		HLLThreshold: 3,
		Cost:         core.CostModel{Alpha: 1, Beta: 8},
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestGoldenCoveringSnapshot(t *testing.T) {
	ix := buildGoldenCoveringIndex(t)
	var fresh bytes.Buffer
	if _, err := Write(&fresh, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}

	if os.Getenv("PERSIST_WRITE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenCoveringPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCoveringPath, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenCoveringPath, fresh.Len())
	}

	golden, err := os.ReadFile(goldenCoveringPath)
	if err != nil {
		t.Fatalf("missing golden covering snapshot (regenerate with PERSIST_WRITE_GOLDEN=1 after a conscious format change): %v", err)
	}
	if !bytes.Equal(golden, fresh.Bytes()) {
		t.Fatalf("writer output drifted from the checked-in v1 covering snapshot (%d vs %d bytes); if the format changed, bump persist.Version and regenerate the golden file",
			len(golden), fresh.Len())
	}

	loaded, meta, err := readCovering(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("reader rejects the golden v1 covering snapshot: %v", err)
	}
	if meta.N != 48 || meta.Dim != 64 || meta.CoverRadius != 3 || meta.Seed != 42 {
		t.Fatalf("golden meta = %+v", meta)
	}
	var reenc bytes.Buffer
	if _, err := Write(&reenc, MetricHamming, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, reenc.Bytes()) {
		t.Fatal("re-encoding the decoded golden covering snapshot does not reproduce its bytes")
	}
	assertCoveringIdentical(t, ix, loaded, binaryData(20, 64, 4321))
}

func TestGoldenCoveringVersionMismatch(t *testing.T) {
	golden, err := os.ReadFile(goldenCoveringPath)
	if err != nil {
		t.Skipf("golden covering snapshot missing: %v", err)
	}
	mut := slices.Clone(golden)
	mut[len(magic)]++ // version u32 LSB: 1 -> 2
	if _, _, err := readCovering(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestGoldenCoveringWrongMagic(t *testing.T) {
	golden, err := os.ReadFile(goldenCoveringPath)
	if err != nil {
		t.Skipf("golden covering snapshot missing: %v", err)
	}
	mut := slices.Clone(golden)
	copy(mut, "not-a-snapshot")
	if _, _, err := readCovering(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}
