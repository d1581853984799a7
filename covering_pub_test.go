package hybridlsh

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/vector"
)

// binaryClusters plants nc prototype codes and draws n points flipping
// at most maxFlips bits each, so radius-r Hamming queries (maxFlips ≤
// r/2) have exact, non-trivial neighbor sets.
func binaryClusters(n, nc, dim, maxFlips int, seed uint64) []Binary {
	r := rng.New(seed)
	protos := make([]Binary, nc)
	for i := range protos {
		b := NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	points := make([]Binary, n)
	for i := range points {
		b := protos[i%nc].Clone()
		for f := 0; f < maxFlips; f++ {
			b.FlipBit(r.Intn(dim))
		}
		points[i] = b
	}
	return points
}

func TestCoveringHammingBasics(t *testing.T) {
	points := binaryClusters(600, 20, 64, 1, 31)

	def, err := NewCoveringHammingIndex(points, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if def.Radius() != 2 || def.Tables() != 7 {
		t.Fatalf("default covering r=%d tables=%d, want 2/7", def.Radius(), def.Tables())
	}

	ix, err := NewCoveringHammingIndex(points, WithRadius(3), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Radius() != 3 || ix.Tables() != 15 {
		t.Fatalf("covering r=%d tables=%d, want 3/15", ix.Radius(), ix.Tables())
	}
	for qi := 0; qi < 15; qi++ {
		q := points[qi*37]
		truth := GroundTruthHamming(points, q, 3)
		ids, st := ix.Query(q)
		if !slices.Equal(sortedIDs(ids), sortedIDs(truth)) {
			t.Errorf("query %d: covering hybrid = %d ids, truth = %d — recall must be exactly 1",
				qi, len(ids), len(truth))
		}
		if st.Results != len(ids) {
			t.Errorf("query %d: stats.Results = %d, ids = %d", qi, st.Results, len(ids))
		}
	}

	if _, err := NewCoveringHammingIndex(nil); err == nil {
		t.Error("empty point set accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithRadius(0) did not panic")
		}
	}()
	NewCoveringHammingIndex(points, WithRadius(0))
}

func TestShardedCoveringMatchesGroundTruth(t *testing.T) {
	points := binaryClusters(900, 30, 64, 1, 33)
	sh, err := NewShardedCoveringHammingIndex(points, WithRadius(3), WithSeed(9), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Radius() != 3 || sh.Defaults().Mode() != "covering" {
		t.Fatalf("sharded covering r=%d mode=%s", sh.Radius(), sh.Defaults().Mode())
	}
	for qi := 0; qi < 12; qi++ {
		q := points[qi*31]
		truth := GroundTruthHamming(points, q, 3)
		ids, _ := sh.Query(q)
		if !slices.Equal(sortedIDs(ids), sortedIDs(truth)) {
			t.Errorf("query %d: sharded covering != exact ground truth", qi)
		}
		// Per-request narrowing through the shard fan-out.
		nids, _, err := sh.QueryWith(q, QueryOpts{Radius: Some(1)})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedIDs(nids), sortedIDs(GroundTruthHamming(points, q, 1))) {
			t.Errorf("query %d: sharded radius-1 override != radius-1 truth", qi)
		}
	}

	// Classic sharded Hamming indexes reject radius overrides.
	classic, err := NewShardedHammingIndex(points, 3, WithSeed(9), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if classic.Defaults() != (QueryOpts{}) {
		t.Fatal("classic sharded index claims per-query option support")
	}
	if _, _, err := classic.QueryWith(points[0], QueryOpts{Radius: Some(1)}); !errors.Is(err, ErrUnsupportedOption) {
		t.Fatalf("radius override on a classic sharded index: err = %v, want ErrUnsupportedOption", err)
	}
}

// TestShardedCoveringDeleteCompactSnapshotRestore is the acceptance
// check: grow, delete, compact, snapshot, restore — the restored index
// answers id-identically, keeps the id space's holes, and the
// no-false-negatives property holds over the survivors.
func TestShardedCoveringDeleteCompactSnapshotRestore(t *testing.T) {
	points := binaryClusters(700, 25, 64, 1, 35)
	sh, err := NewShardedCoveringHammingIndex(points[:600], WithRadius(3), WithSeed(11), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Append(points[600:]); err != nil {
		t.Fatal(err)
	}
	deleted := []int32{2, 9, 77, 300, 601, 640}
	sh.Delete(deleted)
	if _, err := sh.CompactAll(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadShardedCoveringHammingIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Radius() != 3 || restored.N() != sh.N() || restored.Deleted() != sh.Deleted() {
		t.Fatalf("restored r=%d N=%d deleted=%d, want 3/%d/%d",
			restored.Radius(), restored.N(), restored.Deleted(), sh.N(), sh.Deleted())
	}

	dead := make(map[int32]bool, len(deleted))
	for _, id := range deleted {
		dead[id] = true
	}
	for qi := 0; qi < 12; qi++ {
		q := points[qi*29]
		// Exact live ground truth under the global id space.
		var truth []int32
		for id, p := range points {
			if !dead[int32(id)] && vector.Hamming(p, q) <= 3 {
				truth = append(truth, int32(id))
			}
		}
		live, _ := sh.Query(q)
		if !slices.Equal(sortedIDs(live), sortedIDs(truth)) {
			t.Fatalf("query %d: live covering != live ground truth (guarantee broke under delete→compact)", qi)
		}
		rest, _ := restored.Query(q)
		if !slices.Equal(sortedIDs(rest), sortedIDs(live)) {
			t.Fatalf("query %d: restored answers differ from live answers", qi)
		}
	}

	// Reader mismatches are typed rejections in both directions.
	if _, err := ReadShardedHammingIndex(bytes.NewReader(buf.Bytes())); !errors.Is(err, persist.ErrCoverMode) {
		t.Fatalf("classic sharded reader on a covering snapshot: err = %v, want persist.ErrCoverMode", err)
	}
	classic, err := NewShardedHammingIndex(points, 3, WithSeed(12), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var cbuf bytes.Buffer
	if _, err := classic.WriteTo(&cbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardedCoveringHammingIndex(bytes.NewReader(cbuf.Bytes())); !errors.Is(err, persist.ErrCoverMode) {
		t.Fatalf("covering sharded reader on a classic snapshot: err = %v, want persist.ErrCoverMode", err)
	}

	// The plain readers demand their mode the same way — including a
	// reader whose metric cannot hold a covering index at all.
	cov, err := NewCoveringHammingIndex(points[:100], WithRadius(3), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if _, err := cov.WriteTo(&pbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHammingIndex(bytes.NewReader(pbuf.Bytes())); !errors.Is(err, persist.ErrCoverMode) {
		t.Fatalf("classic reader on a covering snapshot: err = %v, want persist.ErrCoverMode", err)
	}
	if _, err := ReadJaccardIndex(bytes.NewReader(pbuf.Bytes())); !errors.Is(err, persist.ErrCoverMode) {
		t.Fatalf("jaccard reader on a covering snapshot: err = %v, want persist.ErrCoverMode", err)
	}

	// Appends continue past the saved high-water mark on the restored
	// index; deleted ids stay reserved.
	ids, err := restored.Append(points[:2])
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 700 || ids[1] != 701 {
		t.Fatalf("appended ids %v, want continuation from 700", ids)
	}
}
