package shard_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// TestTombstonesMatchMapModel replays random appends, deletes,
// compactions and snapshot/restore round trips against a map of the
// deleted ids. The radius covers every point, so each answer must be
// exactly the live ids, and N, Deleted, Stats and Snapshot's tombstone
// list must agree with the map after every step.
func TestTombstonesMatchMapModel(t *testing.T) {
	const dim, radius, shards = 4, 10, 3
	r := rng.New(35)
	point := func() vector.Dense {
		p := make(vector.Dense, dim)
		for d := range p {
			p[d] = float32(r.Float64())
		}
		return p
	}
	points := make([]vector.Dense, 150)
	for i := range points {
		points[i] = point()
	}
	sh, err := shard.New(points, shards, 35, l2Builder(dim, radius))
	if err != nil {
		t.Fatal(err)
	}
	next := int32(len(points))
	dead := map[int32]struct{}{}

	check := func(step int) {
		t.Helper()
		var live []int32
		for id := range next {
			if _, d := dead[id]; !d {
				live = append(live, id)
			}
		}
		if sh.N() != len(live) || sh.Deleted() != len(dead) || sh.Stats().Tombstones != len(dead) {
			t.Fatalf("step %d: N = %d, Deleted = %d, Stats.Tombstones = %d; model has %d live, %d dead",
				step, sh.N(), sh.Deleted(), sh.Stats().Tombstones, len(live), len(dead))
		}
		for i, res := range sh.QueryBatch([]vector.Dense{point(), point(), point()}, 2) {
			if got := sorted(res.IDs); !slices.Equal(got, live) {
				t.Fatalf("step %d, query %d: reported %d ids, want the %d live ones", step, i, len(got), len(live))
			}
		}
		err := sh.Snapshot(func(_ []shard.ShardSnapshot[vector.Dense], _ int32, tombs []int32) error {
			if want := slices.Sorted(maps.Keys(dead)); !slices.Equal(tombs, want) {
				t.Fatalf("step %d: Snapshot tombstones %v, want %v", step, tombs, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for step := range 300 {
		switch op := r.Intn(10); {
		case op < 4:
			batch := make([]vector.Dense, 1+r.Intn(20))
			for i := range batch {
				batch[i] = point()
			}
			ids, err := sh.Append(batch)
			if err != nil {
				t.Fatal(err)
			}
			if ids[0] != next || len(ids) != len(batch) {
				t.Fatalf("step %d: Append gave ids %v from %d", step, ids, next)
			}
			next += int32(len(batch))
		case op < 8:
			ids := make([]int32, 1+r.Intn(15))
			want := 0
			for i := range ids {
				ids[i] = int32(r.Intn(int(next)+6)) - 3
				if _, d := dead[ids[i]]; !d && ids[i] >= 0 && ids[i] < next {
					dead[ids[i]] = struct{}{}
					want++
				}
			}
			if got := sh.Delete(ids); got != want {
				t.Fatalf("step %d: Delete(%v) = %d, want %d", step, ids, got, want)
			}
		case op < 9:
			if _, err := sh.Compact(r.Intn(shards)); err != nil {
				t.Fatal(err)
			}
		default:
			err := sh.Snapshot(func(view []shard.ShardSnapshot[vector.Dense], nextID int32, tombs []int32) error {
				for j := range view {
					view[j].IDs = slices.Clone(view[j].IDs)
				}
				sh, err = shard.Restore(view, nextID, tombs)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
}
