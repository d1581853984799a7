package hybridlsh

import (
	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/shard"
)

// Covering-LSH serving mode. Every probabilistic index in this package
// reports each true r-near neighbor with probability 1 − δ; covering LSH
// (Pagh, SODA 2016) closes the remaining δ for Hamming space: it draws a
// random map φ: [d] → {0,1}^(r+1) and builds one table per non-zero
// vector v ∈ {0,1}^(r+1), keeping exactly the coordinates whose φ-image
// is odd against v — a construction that guarantees (probability 1, not
// 1 − δ) that every point within Hamming radius r shares a bucket with
// the query. Combined with the paper's per-bucket HLL sketches and
// cost-based strategy choice (the second Section-5 extension), both
// query paths are exact, so recall is always 1.0: this is the
// guaranteed-recall deployment mode, priced at 2^(r+1) − 1 tables
// (practical for small integer radii; the radius is capped at 12).
//
// NewCoveringHammingIndex builds the plain (single-writer) variant,
// NewShardedCoveringHammingIndex the concurrency-safe sharded one; both
// expose the same Query/QueryLSH/QueryLinear/DecideStrategy/QueryBatch/
// Append surface as their classic counterparts plus per-call radius
// narrowing (QueryWith with QueryOpts.Radius). WithRadius sets the integer covering radius
// (default 2, i.e. 7 tables); the classic WithTables/WithK/WithDelta
// knobs do not apply — the table count is forced by r and the failure
// probability is zero by construction.

// CoveringHammingIndex answers rNNR queries under Hamming distance on
// binary vectors with covering LSH and the hybrid search strategy on
// top. Unlike HammingIndex it has no false negatives: every point within
// the covering radius is reported, always. Like the other plain indexes
// it is safe for concurrent queries but single-writer (Append must not
// overlap queries); use the sharded variant for serving workloads that
// mutate under traffic.
type CoveringHammingIndex struct{ *covering.Index }

// NewCoveringHammingIndex builds a covering-LSH hybrid index over binary
// points for the integer Hamming radius set via WithRadius (default 2).
// The index maintains 2^(r+1) − 1 mask tables, so small radii are the
// practical regime; WithHLLRegisters, WithHLLThreshold, WithCostModel
// and WithSeed apply as usual, while the classic WithTables/WithK/
// WithDelta options are ignored.
func NewCoveringHammingIndex(points []Binary, opts ...Option) (*CoveringHammingIndex, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewCoveringHammingIndex")
	}
	ix, err := newCoveringCore(points, o)
	if err != nil {
		return nil, err
	}
	return &CoveringHammingIndex{ix}, nil
}

// coveringRadius resolves the WithRadius option: 0 means
// covering.DefaultRadius. Both constructors share it so their defaults
// cannot diverge.
func coveringRadius(o options) int {
	if o.radius == 0 {
		return covering.DefaultRadius
	}
	return o.radius
}

// newCoveringCore builds the covering index; the sharded constructor
// reuses it with a per-shard seed.
func newCoveringCore(points []Binary, o options) (*covering.Index, error) {
	return covering.New(points, coveringRadius(o), covering.Config{
		HLLRegisters: o.hllRegs,
		HLLThreshold: o.hllThresh,
		Cost:         o.cost,
		Seed:         o.seed,
	})
}

// ShardedCoveringHammingIndex is the sharded counterpart of
// CoveringHammingIndex: the same fan-out queries, tombstone deletes,
// auto-compaction and snapshot machinery as ShardedHammingIndex (see
// ShardedL2Index for the concurrency contract), over covering shards.
// Every shard draws its own φ from the construction seed, and each φ
// guarantees zero false negatives on its own points, so the merged
// report keeps recall 1.0. QueryWith and QueryBatchWith additionally
// accept a per-call radius narrowing (QueryOpts.Radius).
type ShardedCoveringHammingIndex struct{ *shard.Sharded[Binary] }

// Radius returns the integer covering radius the shards were built for.
func (s *ShardedCoveringHammingIndex) Radius() int { return s.Defaults().Radius.N }

// NewShardedCoveringHammingIndex builds a sharded covering-LSH hybrid
// index for the WithRadius radius; see NewShardedL2Index for how options
// are applied and NewCoveringHammingIndex for the covering defaults.
func NewShardedCoveringHammingIndex(points []Binary, opts ...Option) (*ShardedCoveringHammingIndex, error) {
	s, err := newSharded("NewShardedCoveringHammingIndex", points, opts, Binary.CacheKey, func(pts []Binary, o options) (core.Store[Binary], error) {
		return newCoveringCore(pts, o)
	})
	if err != nil {
		return nil, err
	}
	return &ShardedCoveringHammingIndex{s}, nil
}
