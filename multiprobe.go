package hybridlsh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/shard"
)

// Multi-probe serving mode. Classic hybrid LSH probes one bucket per
// table, so recall is bought with tables: L = 50 in the paper's setting,
// and every table stores every point. Multi-probe LSH (Lv et al., VLDB
// 2007) probes, besides the home bucket, the T neighboring buckets most
// likely to hold near points — perturbation sets ranked by the query's
// distance to each slot boundary — so far fewer tables reach the same
// recall. That is the memory-constrained deployment mode: an index with
// L = 10 tables and T = 10 probes stores one fifth of the classic
// bucket state. Section 5 of the Hybrid-LSH paper singles this scheme
// out as the best fit for its hybrid strategy, because the probed
// #collisions grows with T while the distinct candidate count
// saturates — exactly the gap candSize estimation closes.
//
// NewMultiProbeL2Index builds the plain (single-writer) variant,
// NewShardedMultiProbeL2Index the concurrency-safe sharded one; both
// expose the same Query/QueryLSH/QueryLinear/DecideStrategy/QueryBatch
// surface as their classic counterparts plus per-call probe overrides
// (QueryOpts.Probes) — on the hybrid path through QueryWith, and on the
// plain index also on the forced paths through QueryLSHWith and
// DecideStrategyWith. WithProbes sets T; WithTables defaults to 10 here
// instead of the classic 50.

// MultiProbeL2Index answers rNNR queries under Euclidean distance with
// query-directed multi-probe LSH and the hybrid search strategy on top.
// Like L2Index it is safe for concurrent queries but single-writer
// (Append must not overlap queries); use the sharded variant for
// serving workloads that mutate under traffic.
type MultiProbeL2Index struct{ *core.Index[Dense] }

// Probes returns T, the configured extra probes per table.
func (ix *MultiProbeL2Index) Probes() int { return ix.Defaults().Probes.N }

// NewMultiProbeL2Index builds a multi-probe hybrid L2 index for radius
// r. Defaults follow the multi-probe regime: L = 10 tables (WithTables
// overrides), T = 10 probes (WithProbes), and the paper's k = 7 with
// slot width w = 2r (WithK / WithSlotWidth).
func NewMultiProbeL2Index(points []Dense, r float64, opts ...Option) (*MultiProbeL2Index, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewMultiProbeL2Index")
	}
	if r <= 0 {
		return nil, fmt.Errorf("hybridlsh: NewMultiProbeL2Index radius = %v, want > 0", r)
	}
	ix, err := newMultiProbeL2Core(points, r, o)
	if err != nil {
		return nil, err
	}
	return &MultiProbeL2Index{ix}, nil
}

// newMultiProbeL2Core builds the multi-probe L2 index; the sharded
// constructor reuses it with a per-shard seed.
func newMultiProbeL2Core(points []Dense, r float64, o options) (*core.Index[Dense], error) {
	w := o.slotWidth
	if w == 0 {
		w = 2 * r
	}
	k := o.k
	if k == 0 {
		k = 7 // the paper's L2 setting for δ = 0.1
	}
	// Multi-probe's point is that it needs far fewer than the classic 50
	// tables: L = 10 and T = 10 unless the options say otherwise.
	l, t := o.tables, o.probes
	if l == 0 {
		l = 10
	}
	if t == 0 {
		t = 10
	}
	return core.NewIndex(points, core.Config[Dense]{
		Family:       lsh.NewPStableL2(len(points[0]), w),
		Distance:     distance.L2,
		Radius:       r,
		Delta:        o.delta,
		K:            k,
		L:            l,
		Probes:       t,
		HLLRegisters: o.hllRegs,
		HLLThreshold: o.hllThresh,
		Cost:         o.cost,
		Seed:         o.seed,
		Store:        pointstore.DenseL2Builder(o.quant),
	})
}

// ShardedMultiProbeL2Index is the sharded counterpart of
// MultiProbeL2Index: the same fan-out queries, tombstone deletes,
// auto-compaction and snapshot machinery as ShardedL2Index (see there
// for the concurrency contract), over multi-probe shards. QueryWith and
// QueryBatchWith additionally accept a per-call probe override
// (QueryOpts.Probes).
type ShardedMultiProbeL2Index struct{ *shard.Sharded[Dense] }

// Probes returns T, the configured extra probes per table.
func (s *ShardedMultiProbeL2Index) Probes() int { return s.Defaults().Probes.N }

// NewShardedMultiProbeL2Index builds a sharded multi-probe hybrid L2
// index for radius r; see NewShardedL2Index for how options are applied
// and NewMultiProbeL2Index for the multi-probe defaults.
func NewShardedMultiProbeL2Index(points []Dense, r float64, opts ...Option) (*ShardedMultiProbeL2Index, error) {
	if r <= 0 && len(points) > 0 { // an empty point set is newSharded's error
		return nil, fmt.Errorf("hybridlsh: NewShardedMultiProbeL2Index radius = %v, want > 0", r)
	}
	s, err := newSharded("NewShardedMultiProbeL2Index", points, opts, Dense.CacheKey, func(pts []Dense, o options) (core.Store[Dense], error) {
		return newMultiProbeL2Core(pts, r, o)
	})
	if err != nil {
		return nil, err
	}
	return &ShardedMultiProbeL2Index{s}, nil
}
