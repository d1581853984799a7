package lsh_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// A snapshot load against the tables it saved. Whatever order the
// decoder meets the buckets in, every loaded table must be the slab a
// refreeze of the saved table builds — the same heads, directory, ids at
// the same width and registers — and the loaded index must write the
// saved bytes again: across both slab widths, sketched and unsketched
// buckets, a live Append overlay, multi-probe and covering tables, and a
// sharded snapshot with one shard compacted to no points.

// denseClusters draws n points of dimension dim around a few centres, so
// that buckets repeat and some reach the sketch threshold.
func denseClusters(n, dim int, seed uint64) []vector.Dense {
	r := rng.New(seed)
	centres := make([]vector.Dense, 8)
	for i := range centres {
		centres[i] = make(vector.Dense, dim)
		for d := range centres[i] {
			centres[i][d] = float32(r.Normal())
		}
	}
	pts := make([]vector.Dense, n)
	for i := range pts {
		c := centres[r.Intn(len(centres))]
		pts[i] = make(vector.Dense, dim)
		for d := range pts[i] {
			pts[i][d] = c[d] + float32(0.05*r.Normal())
		}
	}
	return pts
}

func denseConfig(dim, probes int, seed uint64) core.Config[vector.Dense] {
	return core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(dim, 0.8),
		Distance:     distance.L2,
		Radius:       0.3,
		K:            4,
		L:            12,
		Probes:       probes,
		HLLRegisters: 16,
		HLLThreshold: 4,
		Seed:         seed,
		Store:        pointstore.DenseL2Builder(pointstore.ModeOff),
	}
}

// sameSlabs requires every table of got to be want's table refrozen.
func sameSlabs[P any](t *testing.T, what string, got, want *lsh.Tables[P]) {
	t.Helper()
	if got.L() != want.L() || got.N() != want.N() {
		t.Fatalf("%s: loaded %d tables over %d points, saved %d over %d", what, got.L(), got.N(), want.L(), want.N())
	}
	for j := range got.L() {
		if diff := lsh.SlabDiff(got, want, j); diff != "" {
			t.Fatalf("%s: table %d: the loaded slab's %s differ from the refrozen table's", what, j, diff)
		}
	}
	if got.N() > 0 && got.Stats().SketchedBuckets == 0 {
		t.Fatalf("%s: no sketched bucket to compare", what)
	}
}

// checkLoad writes ix, reads it back, holds the loaded slabs to ix's and
// the loaded index's snapshot to the saved bytes.
func checkLoad[P any](t *testing.T, what, metric string, ix *core.Index[P]) {
	t.Helper()
	var snap, again bytes.Buffer
	if _, err := persist.Write(&snap, metric, ix); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	loaded, _, err := persist.Read[P](bytes.NewReader(snap.Bytes()), metric)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameSlabs(t, what, loaded.Tables(), ix.Tables())
	if _, err := persist.Write(&again, metric, loaded); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatalf("%s: the loaded index writes other bytes", what)
	}
}

func TestLoadedSlabsMatchRefreeze(t *testing.T) {
	for _, wide := range []bool{false, true} {
		t.Run(fmt.Sprintf("wide=%v", wide), func(t *testing.T) {
			defer lsh.SetForceWide(wide)()
			const dim = 16
			pts := denseClusters(600, dim, 1)
			for _, probes := range []int{0, 4} {
				ix, err := core.NewIndex(pts, denseConfig(dim, probes, 3))
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("l2 probes=%d", probes)
				checkLoad(t, what, persist.MetricL2, ix)
				// Half the appended points repeat indexed ones: the
				// overlay extends frozen buckets and adds its own.
				grow := append(append([]vector.Dense(nil), pts[:20]...), denseClusters(20, dim, 2)...)
				if err := ix.Append(grow); err != nil {
					t.Fatal(err)
				}
				checkLoad(t, what+" with overlay", persist.MetricL2, ix)
			}

			for r := 2; r <= 4; r++ {
				base := clustered(200, uint64(r))
				cov, err := covering.New(append(base, base[:100]...), r, covering.Config{
					HLLRegisters: 16,
					HLLThreshold: 3,
					Cost:         core.CostModel{Alpha: 1, Beta: 8},
					Seed:         uint64(r),
				})
				if err != nil {
					t.Fatal(err)
				}
				checkLoad(t, fmt.Sprintf("covering r=%d", r), persist.MetricHamming, cov)
			}

			checkShardedLoad(t, pts)
		})
	}
}

// checkShardedLoad saves a three-shard index whose shard 0 lost every
// point (ids ≡ 0 mod 3 on a round-robin build) and shard 1 a few, and
// holds each loaded shard to the saved shard compacted the way the
// writer compacts it.
func checkShardedLoad(t *testing.T, pts []vector.Dense) {
	t.Helper()
	const shards = 3
	s, err := shard.New(pts, shards, 5, func(p []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(p, denseConfig(len(pts[0]), 0, seed))
	})
	if err != nil {
		t.Fatal(err)
	}
	var doomed []int32
	for id := int32(0); id < int32(len(pts)); id += shards {
		doomed = append(doomed, id)
	}
	s.Delete(append(doomed, 1, 4, 7))

	var snap, again bytes.Buffer
	if _, err := persist.WriteSharded(&snap, persist.MetricL2, s); err != nil {
		t.Fatal(err)
	}
	var want []*core.Index[vector.Dense]
	if err := s.Snapshot(func(views []shard.ShardSnapshot[vector.Dense], _ int32, tombstones []int32) error {
		dead := make(map[int32]bool, len(tombstones))
		for _, id := range tombstones {
			dead[id] = true
		}
		for _, v := range views {
			flags := make([]bool, len(v.IDs))
			for l, id := range v.IDs {
				flags[l] = dead[id]
			}
			ix, err := v.Index.Compact(flags)
			if err != nil {
				return err
			}
			want = append(want, ix)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := persist.ReadSharded[vector.Dense](bytes.NewReader(snap.Bytes()), persist.MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Snapshot(func(views []shard.ShardSnapshot[vector.Dense], _ int32, _ []int32) error {
		for j, v := range views {
			ix, ok := v.Index.(*core.Index[vector.Dense])
			if !ok {
				return fmt.Errorf("shard %d is a %T", j, v.Index)
			}
			sameSlabs(t, fmt.Sprintf("shard %d", j), ix.Tables(), want[j].Tables())
		}
		if n := views[0].Index.N(); n != 0 {
			return fmt.Errorf("the emptied shard loaded with %d points", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.WriteSharded(&again, persist.MetricL2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatal("sharded: the loaded index writes other bytes")
	}
}
