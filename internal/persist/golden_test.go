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
	"repro/internal/multiprobe"
	"repro/internal/shard"
	"repro/internal/vector"
)

// goldenPath holds a checked-in v1 snapshot. The test below requires
// today's reader to accept it and today's writer to reproduce it byte
// for byte, so any change to the wire layout forces a conscious
// Version bump (and a new golden file for the new version).
const goldenPath = "testdata/golden-l2-v1.snap"

// buildGoldenIndex builds the exact index the golden file was generated
// from: fully seeded, so the build is reproducible.
func buildGoldenIndex(t *testing.T) *core.Index[vector.Dense] {
	t.Helper()
	ix, err := core.NewIndex(denseData(48, 6, 1234), core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(6, 0.8),
		Distance:     distance.L2,
		Radius:       0.4,
		Delta:        0.1,
		L:            4,
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

func TestGoldenSnapshot(t *testing.T) {
	ix := buildGoldenIndex(t)
	var fresh bytes.Buffer
	if _, err := Write(&fresh, MetricL2, ix); err != nil {
		t.Fatal(err)
	}

	if os.Getenv("PERSIST_WRITE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, fresh.Len())
	}

	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (regenerate with PERSIST_WRITE_GOLDEN=1 after a conscious format change): %v", err)
	}

	// Today's writer must still produce the v1 bytes exactly.
	if !bytes.Equal(golden, fresh.Bytes()) {
		t.Fatalf("writer output drifted from the checked-in v1 snapshot (%d vs %d bytes); if the format changed, bump persist.Version and regenerate the golden file",
			len(golden), fresh.Len())
	}

	// Today's reader must accept the checked-in bytes and reproduce
	// them on re-encode.
	loaded, meta, err := readIndex[vector.Dense](bytes.NewReader(golden), MetricL2)
	if err != nil {
		t.Fatalf("reader rejects the golden v1 snapshot: %v", err)
	}
	if meta.N != 48 || meta.Dim != 6 || meta.L != 4 || meta.Seed != 42 {
		t.Fatalf("golden meta = %+v", meta)
	}
	var reenc bytes.Buffer
	if _, err := Write(&reenc, MetricL2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, reenc.Bytes()) {
		t.Fatal("re-encoding the decoded golden snapshot does not reproduce its bytes")
	}

	// And the decoded index answers queries exactly like the freshly
	// built one it snapshots.
	assertIdentical(t, ix, loaded, denseData(20, 6, 4321))
}

// TestGoldenVersionMismatch and TestGoldenWrongMagic are the
// error-path tests on the checked-in bytes themselves.
func TestGoldenVersionMismatch(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skipf("golden snapshot missing: %v", err)
	}
	mut := slices.Clone(golden)
	mut[len(magic)]++ // version u32 LSB: 1 -> 2
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestGoldenWrongMagic(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skipf("golden snapshot missing: %v", err)
	}
	mut := slices.Clone(golden)
	copy(mut, "not-a-snapshot")
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(mut), MetricL2); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// ---- sharded goldens ----
//
// One checked-in file per sharded wire shape: classic shards with a
// tombstone (smet/tomb/sids + plain bodies), multi-probe shards (the
// structure-level "prob" section) and covering shards (the
// structure-level "covr" marker + per-shard "covr" bodies).

// checkGolden pins one checked-in snapshot: fresh — today's writer over
// the seeded build — must equal the file byte for byte, and reencode —
// today's reader, then today's writer, over the file's own bytes — must
// reproduce it. PERSIST_WRITE_GOLDEN=1 regenerates the file after a
// conscious format change.
func checkGolden(t *testing.T, path string, fresh []byte, reencode func(golden []byte) []byte) {
	t.Helper()
	if os.Getenv("PERSIST_WRITE_GOLDEN") == "1" {
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(fresh))
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (regenerate with PERSIST_WRITE_GOLDEN=1 after a conscious format change): %v", err)
	}
	if !bytes.Equal(golden, fresh) {
		t.Fatalf("writer output drifted from %s (%d vs %d bytes); if the format changed, bump persist.Version and regenerate the golden file",
			path, len(golden), len(fresh))
	}
	if !bytes.Equal(golden, reencode(golden)) {
		t.Fatalf("re-encoding the decoded %s does not reproduce its bytes", path)
	}
}

// goldenL2Shard builds one classic shard of the sharded goldens.
func goldenL2Shard(pts []vector.Dense, seed uint64) (*core.Index[vector.Dense], error) {
	return core.NewIndex(pts, core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(6, 0.8),
		Distance:     distance.L2,
		Radius:       0.4,
		Delta:        0.1,
		L:            3,
		HLLRegisters: 16,
		HLLThreshold: 3,
		Cost:         core.CostModel{Alpha: 1, Beta: 8},
		Seed:         seed,
	})
}

func TestGoldenShardedL2Snapshot(t *testing.T) {
	sh, err := shard.New(denseData(48, 6, 1234), 3, 42, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return goldenL2Shard(pts, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.Delete([]int32{5})
	var fresh bytes.Buffer
	if _, err := WriteSharded(&fresh, MetricL2, sh); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/golden-sharded-l2-v1.snap", fresh.Bytes(), func(golden []byte) []byte {
		loaded, meta, err := ReadSharded[vector.Dense](bytes.NewReader(golden), MetricL2)
		if err != nil {
			t.Fatalf("reader rejects the golden: %v", err)
		}
		if meta.N != 47 || meta.Dim != 6 || meta.Shards != 3 || meta.Probes != 0 || meta.CoverRadius != 0 || loaded.Deleted() != 1 {
			t.Fatalf("golden meta = %+v, %d deleted", meta, loaded.Deleted())
		}
		assertShardedSameResults(t, sh, loaded, denseData(20, 6, 4321))
		var reenc bytes.Buffer
		if _, err := WriteSharded(&reenc, MetricL2, loaded); err != nil {
			t.Fatal(err)
		}
		return reenc.Bytes()
	})
}

func TestGoldenShardedMultiProbeSnapshot(t *testing.T) {
	sh, err := shard.New(denseData(48, 6, 1234), 2, 42, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		ix, err := goldenL2Shard(pts, seed)
		if err != nil {
			return nil, err
		}
		return multiprobe.FromCore(ix, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if _, err := WriteSharded(&fresh, MetricL2, sh); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/golden-sharded-multiprobe-v1.snap", fresh.Bytes(), func(golden []byte) []byte {
		loaded, meta, err := ReadSharded[vector.Dense](bytes.NewReader(golden), MetricL2)
		if err != nil {
			t.Fatalf("reader rejects the golden: %v", err)
		}
		if meta.N != 48 || meta.Dim != 6 || meta.Shards != 2 || meta.Probes != 5 || meta.CoverRadius != 0 {
			t.Fatalf("golden meta = %+v", meta)
		}
		assertShardedIdentical(t, sh, loaded, denseData(20, 6, 4321))
		var reenc bytes.Buffer
		if _, err := WriteSharded(&reenc, MetricL2, loaded); err != nil {
			t.Fatal(err)
		}
		return reenc.Bytes()
	})
}

func TestGoldenShardedCoveringSnapshot(t *testing.T) {
	sh, err := shard.New(coveringData(48, 64, 1234), 2, 42, func(pts []vector.Binary, seed uint64) (core.Store[vector.Binary], error) {
		return covering.New(pts, 2, covering.Config{
			HLLRegisters: 16,
			HLLThreshold: 3,
			Cost:         core.CostModel{Alpha: 1, Beta: 8},
			Seed:         seed,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if _, err := WriteSharded(&fresh, MetricHamming, sh); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/golden-sharded-covering-v1.snap", fresh.Bytes(), func(golden []byte) []byte {
		loaded, meta, err := readShardedCovering(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("reader rejects the golden: %v", err)
		}
		if meta.N != 48 || meta.Dim != 64 || meta.Shards != 2 || meta.Probes != 0 || meta.CoverRadius != 2 {
			t.Fatalf("golden meta = %+v", meta)
		}
		for qi, q := range binaryData(20, 64, 4321) {
			want, _ := sh.Query(q)
			got, _ := loaded.Query(q)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(want, got) {
				t.Fatalf("query %d: ids %v != %v", qi, got, want)
			}
		}
		var reenc bytes.Buffer
		if _, err := WriteSharded(&reenc, MetricHamming, loaded); err != nil {
			t.Fatal(err)
		}
		return reenc.Bytes()
	})
}
