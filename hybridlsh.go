// Package hybridlsh is a Go implementation of Hybrid LSH (Pham, EDBT
// 2017): r-near neighbors reporting in high-dimensional space that
// automatically interchanges LSH-based search with linear search per
// query.
//
// Classic LSH answers an rNNR query by probing one bucket in each of L
// hash tables and deduplicating the union. On queries that land in dense
// regions the duplicate-removal cost makes LSH slower than a plain linear
// scan. Hybrid LSH attaches a HyperLogLog sketch to every bucket at build
// time; at query time it merges the L sketches (O(m·L), m = 128 registers
// by default) to estimate the distinct candidate count, evaluates the cost
// model
//
//	LSHCost = α·#collisions + β·candSize   vs   LinearCost = β·n
//
// and runs whichever search is cheaper. Easy queries keep LSH's sublinear
// time; hard queries degrade gracefully to an exact linear scan instead of
// an LSH search costing several times that.
//
// # Quick start
//
//	pts := ...              // []hybridlsh.Dense, unit-free L2 data
//	index, err := hybridlsh.NewL2Index(pts, 0.5)   // radius r = 0.5
//	if err != nil { ... }
//	ids, stats := index.Query(q) // ids of all points within 0.5 of q
//	fmt.Println(stats.Strategy)  // "lsh" or "linear"
//
// Each index is built for a fixed radius r and failure probability δ
// (default 0.1): every point within r of the query is reported with
// probability at least 1−δ, and queries answered by the linear path are
// exact. Four metric-specific constructors cover the paper's experiment
// matrix — NewHammingIndex (bit sampling), NewCosineIndex (SimHash),
// NewL1Index and NewL2Index (p-stable projections) — plus NewJaccardIndex
// (MinHash) for set data and NewAngularIndex (cross-polytope) for unit
// vectors. Beyond single-radius indexes, the package provides radius
// ladders (NewL2Ladder, NewHammingLadder) for arbitrary-radius queries,
// Advise for automated (k, L) tuning, Append for dynamic growth and
// QueryBatch for parallel querying.
//
// # Sharded serving
//
// Plain indexes are single-writer: Append must not overlap queries. For
// serving workloads that mutate under traffic, NewShardedL2Index and
// NewShardedHammingIndex partition the points across S independent
// shards (WithShards, default 4) and answer Query/QueryBatch by parallel
// fan-out with a merged result set and aggregated ShardedQueryStats.
// Appends write-lock only the smallest shard while the rest keep
// serving (a query fanned out mid-append waits on that one shard before
// merging), and Delete tombstones ids immediately. On the same point
// slice a sharded index shares the unsharded index's id universe (point
// i keeps id i), and the reported sets agree up to the per-point δ
// failure probability — the shards draw independent hash functions, so
// the two structures may miss different neighbors that sit near the
// radius boundary. cmd/hybridserve exposes a sharded index over HTTP JSON
// (/query, /batch, /append, /delete, /compact, /snapshot, /stats,
// /healthz) with latency percentiles.
//
// # Multi-probe serving mode
//
// Classic hybrid LSH buys recall with tables (L = 50 in the paper's
// setting). NewMultiProbeL2Index and NewShardedMultiProbeL2Index trade
// tables for probes instead: each of far fewer tables (default 10) is
// probed at its home bucket plus the T neighboring buckets most likely
// to hold near points (WithProbes, default 10; Lv et al., VLDB 2007),
// which is the memory-constrained deployment mode — and the extension
// Section 5 of the paper names as the best fit for its hybrid
// strategy, since multi-probe inflates #collisions while the distinct
// candidate count saturates. The multi-probe types expose the same
// Query/QueryLSH/QueryLinear/DecideStrategy/QueryBatch/Append surface
// plus per-call probe overrides (QueryWith), shard, compact and
// snapshot through the same machinery (the probe configuration is
// recorded in the snapshot), and serve via hybridserve -probes.
//
// # Covering serving mode (guaranteed recall)
//
// Every index above reports each true r-near neighbor with probability
// 1 − δ. NewCoveringHammingIndex and NewShardedCoveringHammingIndex
// close the remaining δ for Hamming space with covering LSH (Pagh,
// SODA 2016; the second extension Section 5 names): 2^(r+1) − 1 mask
// tables drawn from a random map φ so that every point within the
// integer radius r (WithRadius, default 2, capped at 12) shares a
// bucket with the query — probability 1, zero false negatives — which
// makes both hybrid paths exact and recall always 1.0. The covering
// types expose the same Query/QueryLSH/QueryLinear/DecideStrategy/
// QueryBatch/Append surface plus per-call radius narrowing
// (QueryWith), shard, compact and snapshot through the same machinery
// (radius and φ are recorded in the snapshot's "covr" section), and
// serve via hybridserve -radius.
//
// # Persistence
//
// Every index type implements io.WriterTo and has a matching Read
// function (ReadL2Index, ReadShardedL2Index, ReadMultiProbeL2Index, …)
// over the versioned hybridlsh-snap/v1 snapshot format; a loaded index
// answers id-for-id identically to the saved one. See persist.go and
// docs/SNAPSHOT_FORMAT.md for the layout and compatibility promise.
package hybridlsh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

// Point representations, re-exported from the internal vector package.
type (
	// Dense is a dense float32 vector (L1, L2 metrics).
	Dense = vector.Dense
	// Sparse is a sorted sparse vector (cosine metric).
	Sparse = vector.Sparse
	// Binary is a bit-packed binary vector (Hamming, Jaccard metrics).
	Binary = vector.Binary
)

// NewSparseVector builds a Sparse from (index, value) pairs; see
// vector.NewSparse for the normalization rules.
func NewSparseVector(dim int, idx []int32, val []float32) Sparse {
	return vector.NewSparse(dim, idx, val)
}

// NewBinaryVector returns an all-zero Binary of dim bits.
func NewBinaryVector(dim int) Binary { return vector.NewBinary(dim) }

// Strategy re-exports the search-path identifier.
type Strategy = core.Strategy

// The two strategies the hybrid decision chooses between.
const (
	StrategyLSH    = core.StrategyLSH
	StrategyLinear = core.StrategyLinear
)

// QueryStats reports what one query did (strategy, collision and candidate
// counts, estimate vs decision costs, timings).
type QueryStats = core.QueryStats

// CostModel holds the calibrated per-operation costs α (duplicate removal)
// and β (distance computation).
type CostModel = core.CostModel

// QueryOpts are the per-query overrides every index's QueryWith(q, opts)
// accepts: Probes (the multi-probe T) and Radius (a narrowed covering
// radius), each unset by default and set with Some. The zero value is
// Query; an option the index's mode does not support — probes on anything
// but a multi-probe index, radius on anything but a covering one — is an
// error wrapping ErrUnsupportedOption.
type QueryOpts = core.QueryOpts

// Some returns the set QueryOpts option n.
func Some(n int) core.OptInt { return core.Some(n) }

// ErrUnsupportedOption marks a QueryOpts option the queried index cannot
// honour.
var ErrUnsupportedOption = core.ErrUnsupportedOption

// BatchResult is one query's outcome within a QueryBatch call (every index
// type provides QueryBatch(queries, workers) for parallel querying).
type BatchResult = core.BatchResult

// HammingIndex answers rNNR queries under Hamming distance on binary
// vectors using the bit-sampling LSH family.
type HammingIndex struct{ *core.Index[Binary] }

// NewHammingIndex builds a hybrid index over binary points for radius r.
func NewHammingIndex(points []Binary, r float64, opts ...Option) (*HammingIndex, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewHammingIndex")
	}
	ix, err := newHammingCore(points, r, o)
	if err != nil {
		return nil, err
	}
	return &HammingIndex{ix}, nil
}

// newHammingCore builds the core Hamming index; the sharded constructor
// reuses it with a per-shard seed.
func newHammingCore(points []Binary, r float64, o options) (*core.Index[Binary], error) {
	cfg := overlay(o, core.Config[Binary]{
		Family:   lsh.NewBitSampling(points[0].Dim),
		Distance: distance.Hamming,
		Radius:   r,
		Store:    pointstore.BinaryHammingBuilder(),
	})
	return core.NewIndex(points, cfg)
}

// CosineIndex answers rNNR queries under cosine distance (1 − cos θ) on
// sparse vectors using the SimHash family.
type CosineIndex struct{ *core.Index[Sparse] }

// NewCosineIndex builds a hybrid index over sparse points for radius r.
func NewCosineIndex(points []Sparse, r float64, opts ...Option) (*CosineIndex, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewCosineIndex")
	}
	cfg := overlay(o, core.Config[Sparse]{
		Family:   lsh.NewSimHashCosine(points[0].Dim),
		Distance: distance.Cosine,
		Radius:   r,
	})
	ix, err := core.NewIndex(points, cfg)
	if err != nil {
		return nil, err
	}
	return &CosineIndex{ix}, nil
}

// L1Index answers rNNR queries under Manhattan distance on dense vectors
// using 1-stable (Cauchy) projections.
type L1Index struct{ *core.Index[Dense] }

// NewL1Index builds a hybrid index over dense points for radius r. The
// slot width defaults to the paper's CoverType setting w = 4r with k = 8
// unless overridden by WithSlotWidth / WithK.
func NewL1Index(points []Dense, r float64, opts ...Option) (*L1Index, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewL1Index")
	}
	if r <= 0 {
		return nil, fmt.Errorf("hybridlsh: NewL1Index radius = %v, want > 0", r)
	}
	w := o.slotWidth
	if w == 0 {
		w = 4 * r
	}
	cfg := overlay(o, core.Config[Dense]{
		Family:   lsh.NewPStableL1(len(points[0]), w),
		Distance: distance.L1,
		Radius:   r,
	})
	if cfg.K == 0 {
		cfg.K = 8 // the paper's L1 setting for δ = 0.1
	}
	ix, err := core.NewIndex(points, cfg)
	if err != nil {
		return nil, err
	}
	return &L1Index{ix}, nil
}

// L2Index answers rNNR queries under Euclidean distance on dense vectors
// using 2-stable (Gaussian) projections.
type L2Index struct{ *core.Index[Dense] }

// NewL2Index builds a hybrid index over dense points for radius r. The
// slot width defaults to the paper's Corel setting w = 2r with k = 7
// unless overridden by WithSlotWidth / WithK.
func NewL2Index(points []Dense, r float64, opts ...Option) (*L2Index, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewL2Index")
	}
	if r <= 0 {
		return nil, fmt.Errorf("hybridlsh: NewL2Index radius = %v, want > 0", r)
	}
	ix, err := newL2Core(points, r, o)
	if err != nil {
		return nil, err
	}
	return &L2Index{ix}, nil
}

// newL2Core builds the core L2 index; the sharded constructor reuses it
// with a per-shard seed.
func newL2Core(points []Dense, r float64, o options) (*core.Index[Dense], error) {
	w := o.slotWidth
	if w == 0 {
		w = 2 * r
	}
	cfg := overlay(o, core.Config[Dense]{
		Family:   lsh.NewPStableL2(len(points[0]), w),
		Distance: distance.L2,
		Radius:   r,
		Store:    pointstore.DenseL2Builder(o.quant),
	})
	if cfg.K == 0 {
		cfg.K = 7 // the paper's L2 setting for δ = 0.1
	}
	return core.NewIndex(points, cfg)
}

// AngularIndex answers rNNR queries under normalized-angle distance
// (θ/π ∈ [0, 1]) on dense unit vectors using cross-polytope LSH (Andoni
// et al., NIPS 2015 — the FALCONN family), whose collision-probability
// curve is Monte-Carlo calibrated at construction.
type AngularIndex struct{ *core.Index[Dense] }

// NewAngularIndex builds a hybrid index over dense unit vectors for
// normalized-angle radius r ∈ (0, 1).
func NewAngularIndex(points []Dense, r float64, opts ...Option) (*AngularIndex, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewAngularIndex")
	}
	cfg := overlay(o, core.Config[Dense]{
		Family:   lsh.NewCrossPolytope(len(points[0]), o.seed^0xc9),
		Distance: distance.AngularDense,
		Radius:   r,
	})
	ix, err := core.NewIndex(points, cfg)
	if err != nil {
		return nil, err
	}
	return &AngularIndex{ix}, nil
}

// JaccardIndex answers rNNR queries under Jaccard distance on binary
// vectors (viewed as sets) using the MinHash family.
type JaccardIndex struct{ *core.Index[Binary] }

// NewJaccardIndex builds a hybrid index over set-valued points for radius
// r ∈ (0, 1).
func NewJaccardIndex(points []Binary, r float64, opts ...Option) (*JaccardIndex, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return nil, errEmpty("NewJaccardIndex")
	}
	cfg := overlay(o, core.Config[Binary]{
		Family:   lsh.NewMinHash(points[0].Dim),
		Distance: distance.Jaccard,
		Radius:   r,
	})
	ix, err := core.NewIndex(points, cfg)
	if err != nil {
		return nil, err
	}
	return &JaccardIndex{ix}, nil
}

// Calibrate measures the cost-model constants (α, β) for dense L2 data on
// this machine; pass the result via WithCostModel. queries and sample
// default to the paper's 100 and 10,000 when 0. β is timed through the
// point store the matching index verifies with (here the flat L2 store
// and its batch kernel), so it is the cost of the verification the index
// performs, not of a stand-alone distance call.
func Calibrate(points []Dense, queries, sample int, seed uint64) CostModel {
	return core.Calibrate(points, pointstore.DenseL2Builder(pointstore.ModeOff), queries, sample, seed)
}

// CalibrateL1 is Calibrate under Manhattan distance.
func CalibrateL1(points []Dense, queries, sample int, seed uint64) CostModel {
	return core.Calibrate(points, pointstore.GenericBuilder(distance.L1), queries, sample, seed)
}

// CalibrateCosine is Calibrate for sparse cosine data.
func CalibrateCosine(points []Sparse, queries, sample int, seed uint64) CostModel {
	return core.Calibrate(points, pointstore.GenericBuilder(distance.Cosine), queries, sample, seed)
}

// CalibrateHamming is Calibrate for binary Hamming data.
func CalibrateHamming(points []Binary, queries, sample int, seed uint64) CostModel {
	return core.Calibrate(points, pointstore.BinaryHammingBuilder(), queries, sample, seed)
}

// CalibrateJaccard is Calibrate for set-valued (Jaccard) data.
func CalibrateJaccard(points []Binary, queries, sample int, seed uint64) CostModel {
	return core.Calibrate(points, pointstore.GenericBuilder(distance.Jaccard), queries, sample, seed)
}

// GroundTruth returns the exact rNNR answer for dense L2 data by linear
// scan, for recall evaluation.
func GroundTruth(points []Dense, q Dense, r float64) []int32 {
	return core.GroundTruth(points, distance.L2, q, r)
}

// GroundTruthL1 is GroundTruth under Manhattan distance.
func GroundTruthL1(points []Dense, q Dense, r float64) []int32 {
	return core.GroundTruth(points, distance.L1, q, r)
}

// GroundTruthCosine is GroundTruth under cosine distance.
func GroundTruthCosine(points []Sparse, q Sparse, r float64) []int32 {
	return core.GroundTruth(points, distance.Cosine, q, r)
}

// GroundTruthHamming is GroundTruth under Hamming distance.
func GroundTruthHamming(points []Binary, q Binary, r float64) []int32 {
	return core.GroundTruth(points, distance.Hamming, q, r)
}

// GroundTruthJaccard is GroundTruth under Jaccard distance.
func GroundTruthJaccard(points []Binary, q Binary, r float64) []int32 {
	return core.GroundTruth(points, distance.Jaccard, q, r)
}

// Recall returns |reported ∩ truth|/|truth| (order-insensitive).
func Recall(reported, truth []int32) float64 { return core.Recall(reported, truth) }
