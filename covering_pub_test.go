package hybridlsh

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/shard"
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

	ix, err := New(Hamming, points, 3, WithCovering(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Defaults() != (QueryOpts{Radius: Some(3)}) || ix.L() != 15 {
		t.Fatalf("covering mode %+v tables=%d, want radius 3 and 15 tables", ix.Defaults(), ix.L())
	}
	for qi := 0; qi < 15; qi++ {
		q := points[qi*37]
		truth := GroundTruth(Hamming, points, q, 3)
		ids, st := ix.Query(q)
		if !slices.Equal(sortedIDs(ids), sortedIDs(truth)) {
			t.Errorf("query %d: covering hybrid = %d ids, truth = %d — recall must be exactly 1",
				qi, len(ids), len(truth))
		}
		if st.Results != len(ids) {
			t.Errorf("query %d: stats.Results = %d, ids = %d", qi, st.Results, len(ids))
		}
	}

	if _, err := New(Hamming, nil, 3, WithCovering()); err == nil {
		t.Error("empty point set accepted")
	}
	for _, r := range []float64{0.5, 2.5, 13} {
		if _, err := New(Hamming, points, r, WithCovering()); err == nil {
			t.Errorf("covering radius %v accepted", r)
		}
	}
	// Covering is a Hamming mode only.
	if _, err := New(Jaccard, points, 0.3, WithCovering()); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("WithCovering on jaccard: err = %v, want ErrUnsupportedOption", err)
	}
	dense, _ := tightClusters(50, 5, 8, 31)
	if _, err := NewSharded(L2, dense, 1, WithCovering()); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("WithCovering on sharded l2: err = %v, want ErrUnsupportedOption", err)
	}
}

func TestShardedCoveringMatchesGroundTruth(t *testing.T) {
	points := binaryClusters(900, 30, 64, 1, 33)
	sh, err := NewSharded(Hamming, points, 3, WithCovering(), WithSeed(9), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Defaults().Radius.N != 3 || sh.Defaults().Mode() != "covering" {
		t.Fatalf("sharded covering r=%d mode=%s", sh.Defaults().Radius.N, sh.Defaults().Mode())
	}
	for qi := 0; qi < 12; qi++ {
		q := points[qi*31]
		truth := GroundTruth(Hamming, points, q, 3)
		ids, _ := sh.Query(q)
		if !slices.Equal(sortedIDs(ids), sortedIDs(truth)) {
			t.Errorf("query %d: sharded covering != exact ground truth", qi)
		}
		// Per-request narrowing through the shard fan-out.
		nids, _, err := sh.QueryWith(q, QueryOpts{Radius: Some(1)})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedIDs(nids), sortedIDs(GroundTruth(Hamming, points, q, 1))) {
			t.Errorf("query %d: sharded radius-1 override != radius-1 truth", qi)
		}
	}

	// Classic sharded Hamming indexes reject radius overrides.
	classic, err := NewSharded(Hamming, points, 3, WithSeed(9), WithShards(4))
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
	sh, err := NewSharded(Hamming, points[:600], 3, WithCovering(), WithSeed(11), WithShards(3))
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
	restored, err := OpenSharded(Hamming, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Defaults().Radius.N != 3 || restored.N() != sh.N() || restored.Deleted() != sh.Deleted() {
		t.Fatalf("restored r=%d N=%d deleted=%d, want 3/%d/%d",
			restored.Defaults().Radius.N, restored.N(), restored.Deleted(), sh.N(), sh.Deleted())
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

	// The snapshot decides the mode: the plain reader opens a covering
	// file as covering, and a metric that cannot hold a covering index
	// rejects it with the typed error.
	cov, err := New(Hamming, points[:100], 3, WithCovering(), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	var pbuf bytes.Buffer
	if _, err := cov.WriteTo(&pbuf); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(Hamming, bytes.NewReader(pbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if opened.Defaults() != cov.Defaults() {
		t.Fatalf("opened covering snapshot in mode %+v, want %+v", opened.Defaults(), cov.Defaults())
	}
	if _, err := Open(Jaccard, bytes.NewReader(pbuf.Bytes())); !errors.Is(err, persist.ErrCoverMode) {
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

// TestCoveringDistanceTo holds a covering index's DistanceTo to the
// Hamming distance, built and opened from a snapshot alike.
func TestCoveringDistanceTo(t *testing.T) {
	points := binaryClusters(200, 10, 64, 2, 41)
	ix, err := New(Hamming, points, 3, WithCovering(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(Hamming, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Index[Binary]{ix, opened} {
		for id := int32(0); id < 20; id++ {
			q := points[(id*7+3)%int32(len(points))]
			if got, want := x.DistanceTo(id, q), float64(vector.Hamming(points[id], q)); got != want {
				t.Fatalf("DistanceTo(%d) = %v, want %v", id, got, want)
			}
		}
	}
}

// TestCoveringPhiSurvivesOpen holds the drawn map φ, its radius and its
// seed across a snapshot: Open and OpenSharded bring back the φ each
// index (each shard) was built with.
func TestCoveringPhiSurvivesOpen(t *testing.T) {
	points := binaryClusters(300, 12, 64, 1, 43)
	phiOf := func(ix *core.Index[Binary]) covering.Phi {
		t.Helper()
		phi, ok := covering.PhiOf(ix)
		if !ok {
			t.Fatal("PhiOf finds no φ on a covering index")
		}
		return *phi
	}
	samePhi := func(what string, got, want covering.Phi) {
		t.Helper()
		if got.Radius != want.Radius || got.Seed != want.Seed || !slices.Equal(got.Map, want.Map) {
			t.Fatalf("%s: φ r=%d seed=%d, want r=%d seed=%d (maps equal: %v)",
				what, got.Radius, got.Seed, want.Radius, want.Seed, slices.Equal(got.Map, want.Map))
		}
	}

	ix, err := New(Hamming, points, 2, WithCovering(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(Hamming, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := phiOf(ix.Index); want.Radius != 2 || want.Seed != 9 {
		t.Fatalf("built φ has r=%d seed=%d, want 2 and 9", want.Radius, want.Seed)
	}
	samePhi("Open", phiOf(opened.Index), phiOf(ix.Index))

	shardPhis := func(s *Sharded[Binary]) []covering.Phi {
		t.Helper()
		var phis []covering.Phi
		err := s.Snapshot(func(shards []shard.ShardSnapshot[Binary], _ int32, _ []int32) error {
			for _, sv := range shards {
				phis = append(phis, phiOf(sv.Index.(*core.Index[Binary])))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return phis
	}
	sh, err := NewSharded(Hamming, points, 2, WithCovering(), WithSeed(9), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	sh.Delete([]int32{0, 1, 2, 50})
	buf.Reset()
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSharded(Hamming, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, got := shardPhis(sh), shardPhis(restored)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("%d restored shards, %d built, want 3", len(got), len(want))
	}
	for j := range want {
		samePhi(fmt.Sprintf("OpenSharded shard %d", j), got[j], want[j])
	}
}
