package persist

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/vector"
)

// The delta-stream and WAL-segment goldens pin the replication bytes
// the way the snapshot goldens pin the at-rest bytes: today's encoder
// must reproduce each file exactly, and today's decoder must read it
// back into the frames it was written from. Regenerate them with
// PERSIST_WRITE_GOLDEN=1 only after a conscious format change (which
// also bumps DeltaVersion or WALSegVersion).

// checkDeltaGolden encodes h + frames, compares the bytes with the
// golden file at path, decodes the golden file and re-encodes what it
// decoded.
func checkDeltaGolden[P any](t *testing.T, path string, h DeltaHeader, frames []DeltaFrame[P]) {
	t.Helper()
	fresh := writeDeltaStream(t, h, frames)
	golden := readGolden(t, path, fresh)
	if !bytes.Equal(golden, fresh) {
		t.Fatalf("%s: encoder output drifted from the checked-in bytes (%d vs %d bytes)", path, len(golden), len(fresh))
	}
	gotH, got := readAll[P](t, golden, h.Metric)
	if gotH != h {
		t.Fatalf("%s: header decodes to %+v, want %+v", path, gotH, h)
	}
	if !reflect.DeepEqual(got, frames) {
		t.Fatalf("%s: frames decode to\n %+v\nwant %+v", path, got, frames)
	}
	if again := writeDeltaStream(t, gotH, got); !bytes.Equal(again, golden) {
		t.Fatalf("%s: re-encoding the decoded frames does not reproduce the golden bytes", path)
	}
}

// readGolden returns the golden file's bytes, first writing fresh to
// it when PERSIST_WRITE_GOLDEN=1.
func readGolden(t *testing.T, path string, fresh []byte) []byte {
	t.Helper()
	if os.Getenv("PERSIST_WRITE_GOLDEN") == "1" {
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(fresh))
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with PERSIST_WRITE_GOLDEN=1 after a conscious format change): %v", path, err)
	}
	return golden
}

func TestGoldenDeltaL2(t *testing.T) {
	checkDeltaGolden(t, "testdata/golden-delta-l2-v1.bin",
		DeltaHeader{Epoch: 0x0102030405060708, Metric: MetricL2, Dim: 5},
		[]DeltaFrame[vector.Dense]{
			{Seq: 1, Kind: DeltaAppend, Shard: 1, Base: 40, Points: denseData(3, 5, 71)},
			{Seq: 2, Kind: DeltaDelete, IDs: []int32{2, 41, 42}},
			{Seq: 3, Kind: DeltaCompact, Shard: 1, IDs: []int32{41, 42}},
		})
}

func TestGoldenDeltaHamming(t *testing.T) {
	checkDeltaGolden(t, "testdata/golden-delta-hamming-v1.bin",
		DeltaHeader{Epoch: 17, Metric: MetricHamming, Dim: 70},
		[]DeltaFrame[vector.Binary]{
			{Seq: 1, Kind: DeltaAppend, Shard: 0, Base: 8, Points: binaryData(3, 70, 72)},
			{Seq: 2, Kind: DeltaDelete, IDs: []int32{9}},
			{Seq: 3, Kind: DeltaCompact, Shard: 0, IDs: []int32{9}},
		})
}

func TestGoldenDeltaCosine(t *testing.T) {
	checkDeltaGolden(t, "testdata/golden-delta-cosine-v1.bin",
		DeltaHeader{Epoch: 99, Metric: MetricCosine, Dim: 20},
		[]DeltaFrame[vector.Sparse]{
			{Seq: 1, Kind: DeltaAppend, Shard: 2, Base: 0, Points: sparseData(3, 20, 4, 73)},
			{Seq: 2, Kind: DeltaDelete, IDs: []int32{0, 2}},
			{Seq: 3, Kind: DeltaCompact, Shard: 2, IDs: []int32{0, 2}},
		})
}

func TestGoldenWALSegmentHeader(t *testing.T) {
	const path = "testdata/golden-walseg-v1.bin"
	h := WALSegmentHeader{
		Delta:    DeltaHeader{Epoch: 0x1122334455667788, Metric: MetricL2, Dim: 128},
		FirstSeq: 9001,
	}
	var fresh bytes.Buffer
	if err := WriteWALSegmentHeader(&fresh, h); err != nil {
		t.Fatalf("WriteWALSegmentHeader: %v", err)
	}
	golden := readGolden(t, path, fresh.Bytes())
	if !bytes.Equal(golden, fresh.Bytes()) {
		t.Fatalf("%s: encoder output drifted from the checked-in bytes", path)
	}
	got, n, err := ReadWALSegmentHeader(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if got != h || n != len(golden) {
		t.Fatalf("%s: decodes to %+v over %d bytes, want %+v over %d", path, got, n, h, len(golden))
	}
}
