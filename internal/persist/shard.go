package persist

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/shard"
)

// WriteSharded writes a snapshot of a sharded index and returns the
// number of bytes written. It takes a consistent view of the structure
// (appends are blocked for the duration; queries keep flowing) and
// compacts tombstoned points out of every shard: their ids are recorded
// in the tombstone section so the id space's holes survive the reload,
// but the points themselves, their bucket entries and their sketch
// contributions are not serialized.
//
// The structure's serving mode (shard.Sharded.Defaults) picks the layout:
// multi-probe shards record their shared T once in a structure-level
// "prob" section and serialize each index's classic sections as usual;
// covering shards record their shared radius in a structure-level "covr"
// marker and serialize "covr" bodies; classic shards write neither.
func WriteSharded[P any](w io.Writer, metric string, s *shard.Sharded[P]) (int64, error) {
	return writeContainer(w, metric, kindSharded, func(w io.Writer, c *codec[P]) error {
		return s.Snapshot(func(shards []shard.ShardSnapshot[P], nextID int32, tombstones []int32) error {
			var e enc
			e.str(metric)
			e.u32(uint32(len(shards)))
			e.i32(nextID)
			if err := writeSection(w, "smet", e.b); err != nil {
				return err
			}
			if err := writeIDSection(w, "tomb", tombstones); err != nil {
				return err
			}
			switch mode := s.Defaults(); {
			case mode.Probes.Set:
				if err := writeProbeSection(w, mode.Probes.N); err != nil {
					return err
				}
			case mode.Radius.Set:
				if err := writeCoverMarker(w, mode.Radius.N); err != nil {
					return err
				}
			}
			for j, sv := range shards {
				ix, ids, err := compactShard(sv, tombstones)
				if err != nil {
					return fmt.Errorf("persist: compacting shard %d for snapshot: %w", j, err)
				}
				if err := writeIDSection(w, "sids", ids); err != nil {
					return err
				}
				if err := writeBody(w, c, ix, true); err != nil {
					return fmt.Errorf("persist: shard %d: %w", j, err)
				}
			}
			return nil
		})
	})
}

// compactShard filters a shard's tombstoned points out of its snapshot
// view: the surviving global ids are returned with the index rewritten
// by its own Compact — hash functions kept, survivors renumbered,
// sketches rebuilt over the surviving ids (HLLs cannot un-absorb a
// deletion, so rebuild is the only sound option). That is the rewrite
// the online shard.Sharded.Compact path runs, so a snapshot of a
// tombstoned index and a snapshot of the same index compacted online are
// byte-identical. When the shard holds no tombstoned point Compact
// returns the original (live, read-locked) index without copying.
func compactShard[P any](sv shard.ShardSnapshot[P], tombstones []int32) (*core.Index[P], []int32, error) {
	dead := make([]bool, len(sv.IDs))
	ids := sv.IDs
	if len(tombstones) > 0 {
		ids = make([]int32, 0, len(sv.IDs))
		for l, gid := range sv.IDs {
			if _, d := slices.BinarySearch(tombstones, gid); d {
				dead[l] = true
			} else {
				ids = append(ids, gid)
			}
		}
	}
	ix, err := sv.Index.Compact(dead)
	return ix, ids, err
}

// writeIDSection writes a "tomb" or "sids" section: a counted id list.
func writeIDSection(w io.Writer, tag string, ids []int32) error {
	var e enc
	e.u64(uint64(len(ids)))
	for _, id := range ids {
		e.i32(id)
	}
	return writeSection(w, tag, e.b)
}

// readIDSection reads a "tomb" or "sids" section.
func readIDSection(ss *sectionStream, tag, what string) ([]int32, error) {
	payload, err := ss.read(tag)
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload}
	ids := make([]int32, d.count(4, what))
	for i := range ids {
		ids[i] = d.i32()
	}
	return ids, d.done(tag)
}

// ReadSharded reads a sharded snapshot, requiring it to hold the given
// metric, and reassembles the sharded index: per-shard hash functions (or
// covering maps φ), buckets and sketches are restored exactly, the global
// id space keeps its tombstone holes, and appends continue from the saved
// high-water id mark. The snapshot decides the serving mode in the same
// streaming pass: a structure-level "prob" section brings the shards back
// as multi-probe indexes with the saved T (Meta.Probes), a "covr" marker
// as covering indexes (Meta.CoverRadius). Callers that demand one mode
// check it with Meta.RequireMode.
func ReadSharded[P any](r io.Reader, metric string) (*shard.Sharded[P], Meta, error) {
	c, ss, err := openContainer[P](r, metric, kindSharded)
	if err != nil {
		return nil, Meta{}, err
	}
	payload, err := ss.read("smet")
	if err != nil {
		return nil, Meta{}, err
	}
	d := &dec{b: payload}
	gotMetric := d.str()
	nshards := int(d.u32())
	nextID := d.i32()
	if err := d.done("smet"); err != nil {
		return nil, Meta{}, err
	}
	if gotMetric != metric {
		return nil, Meta{}, fmt.Errorf("%w: snapshot holds metric %q, want %q", ErrMetric, gotMetric, metric)
	}
	if nshards < 1 || nshards > maxShards {
		return nil, Meta{}, corrupt("shard count %d outside [1,%d]", nshards, maxShards)
	}
	if nextID < 0 {
		return nil, Meta{}, corrupt("next id %d negative", nextID)
	}

	tombstones, err := readIDSection(ss, "tomb", "tombstone")
	if err != nil {
		return nil, Meta{}, err
	}
	for i, id := range tombstones {
		if id < 0 || id >= nextID {
			return nil, Meta{}, corrupt("tombstone id %d outside [0,%d)", id, nextID)
		}
		if i > 0 && id <= tombstones[i-1] {
			return nil, Meta{}, corrupt("tombstone ids not strictly increasing at %d", i)
		}
	}

	probes, err := ss.readProbeSection()
	if err != nil {
		return nil, Meta{}, err
	}
	coverRadius, err := ss.readCoverMarker()
	if err != nil {
		return nil, Meta{}, err
	}

	shards := make([]shard.ShardSnapshot[P], nshards)
	live := 0
	var meta Meta
	for j := range shards {
		ids, err := readIDSection(ss, "sids", "shard id")
		if err != nil {
			return nil, Meta{}, err
		}
		st, m, err := readBody(ss, c, probes)
		if err != nil {
			return nil, Meta{}, err
		}
		if m.Probes != 0 {
			return nil, Meta{}, corrupt("shard %d carries its own probe section; the probe config is structure-level", j)
		}
		if m.CoverRadius != coverRadius {
			return nil, Meta{}, corrupt("shard %d has covering radius %d, structure says %d", j, m.CoverRadius, coverRadius)
		}
		if j == 0 {
			meta = m
		} else if m.Dim != meta.Dim || m.Radius != meta.Radius {
			return nil, Meta{}, corrupt("shard %d has dim %d r %v, shard 0 has dim %d r %v",
				j, m.Dim, m.Radius, meta.Dim, meta.Radius)
		}
		shards[j] = shard.ShardSnapshot[P]{Index: st, IDs: ids}
		live += len(ids)
	}
	if _, err := ss.read("end!"); err != nil {
		return nil, Meta{}, err
	}
	// Canonical invariant: every allocated id is either live in exactly
	// one shard or tombstoned (shard.Restore rejects cross-shard
	// duplicates and out-of-range ids; tombstoned live ids would break
	// the count too).
	if live+len(tombstones) != int(nextID) {
		return nil, Meta{}, corrupt("%d live + %d tombstoned ids, want %d allocated", live, len(tombstones), nextID)
	}
	if len(tombstones) > 0 {
		for _, sv := range shards {
			for _, id := range sv.IDs {
				if _, ok := slices.BinarySearch(tombstones, id); ok {
					return nil, Meta{}, corrupt("id %d is both live and tombstoned", id)
				}
			}
		}
	}
	sh, err := shard.Restore(shards, nextID, tombstones)
	if err != nil {
		return nil, Meta{}, corrupt("restoring shards: %v", err)
	}
	meta.Shards = nshards
	meta.N = live
	meta.Probes = probes
	return sh, meta, nil
}
