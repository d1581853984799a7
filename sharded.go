package hybridlsh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
)

// ShardedQueryStats aggregates the per-shard outcomes of one fanned-out
// query: strategy mix, summed collision/candidate counts and the
// critical-path vs total shard time.
type ShardedQueryStats = shard.QueryStats

// ShardedBatchResult is one query's outcome within a sharded QueryBatch.
type ShardedBatchResult = shard.BatchResult

// ShardStats is a point-in-time topology snapshot of a sharded index
// (shard sizes, live points, tombstones).
type ShardStats = shard.Stats

// ShardedL2Index partitions an L2 index across S shards and answers
// queries by parallel fan-out. Unlike L2Index it is safe for concurrent
// mutation: Append write-locks a single shard while the others keep
// serving, and Delete tombstones ids without touching the tables. On the
// same point slice it shares L2Index's id universe (point i keeps id i);
// reported sets agree up to the per-point δ failure probability, since
// the shards draw independent hash functions.
//
// Deleted points are compacted out of a shard's buckets — keeping the
// drawn hash functions, rebuilding the sketches from live ids —
// automatically once the shard's tombstone ratio crosses
// WithCompactionThreshold (default 20%), or on demand via the promoted
// Compact/CompactAll methods, so the hybrid strategy decision never
// drifts under delete-heavy traffic.
type ShardedL2Index struct{ *shard.Sharded[Dense] }

// NewShardedL2Index builds a sharded hybrid L2 index for radius r. The
// shard count comes from WithShards (default 4, clamped to len(points));
// all other options apply to every shard, except that each shard draws
// independent hash functions from the WithSeed seed.
func NewShardedL2Index(points []Dense, r float64, opts ...Option) (*ShardedL2Index, error) {
	if r <= 0 && len(points) > 0 { // an empty point set is newSharded's error
		return nil, fmt.Errorf("hybridlsh: NewShardedL2Index radius = %v, want > 0", r)
	}
	s, err := newSharded("NewShardedL2Index", points, opts, Dense.CacheKey, func(pts []Dense, o options) (core.Store[Dense], error) {
		return newL2Core(pts, r, o)
	})
	if err != nil {
		return nil, err
	}
	return &ShardedL2Index{s}, nil
}

// newSharded is the body every sharded constructor shares: partition
// points across WithShards shards, build each with the constructor's
// options under its own seed (build must return the mode's core.Store),
// then apply the structure-level options (WithCompactionThreshold,
// WithCache under the point type's exact key encoding).
func newSharded[P any](name string, points []P, opts []Option, key func(P) string,
	build func(pts []P, o options) (core.Store[P], error)) (*shard.Sharded[P], error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty(name)
	}
	s, err := shard.New(points, o.shardCount(), o.seed, func(pts []P, seed uint64) (core.Store[P], error) {
		so := o
		so.seed = seed
		return build(pts, so)
	})
	if err != nil {
		return nil, err
	}
	if o.compactThresh != 0 {
		s.SetAutoCompact(o.compactThresh)
	}
	if o.cacheSize != 0 {
		if err := s.EnableCache(o.cacheSize, key); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ShardedHammingIndex is the sharded counterpart of HammingIndex; see
// ShardedL2Index for the concurrency contract.
type ShardedHammingIndex struct{ *shard.Sharded[Binary] }

// NewShardedHammingIndex builds a sharded hybrid Hamming index for
// radius r; see NewShardedL2Index for how options are applied.
func NewShardedHammingIndex(points []Binary, r float64, opts ...Option) (*ShardedHammingIndex, error) {
	s, err := newSharded("NewShardedHammingIndex", points, opts, Binary.CacheKey, func(pts []Binary, o options) (core.Store[Binary], error) {
		return newHammingCore(pts, r, o)
	})
	if err != nil {
		return nil, err
	}
	return &ShardedHammingIndex{s}, nil
}
