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
//	pts := ...                                   // []hybridlsh.Dense
//	index, err := hybridlsh.New(hybridlsh.L2, pts, 0.5) // radius r = 0.5
//	if err != nil { ... }
//	ids, stats := index.Query(q) // ids of all points within 0.5 of q
//	fmt.Println(stats.Strategy)  // "lsh" or "linear"
//
// Each index is built for a fixed radius r and failure probability δ
// (default 0.1): every point within r of the query is reported with
// probability at least 1−δ, and queries answered by the linear path are
// exact. The hybrid decision does not depend on the LSH family, so one
// surface serves every metric: a Metric names the distance, the family
// that hashes it, the store that verifies it and their defaults, and its
// type parameter is the point type — L2, L1 and Angular take Dense,
// Cosine takes Sparse, Hamming and Jaccard take Binary. New builds an
// Index, NewSharded a Sharded, NewLadder a radius ladder for
// arbitrary-radius queries; Calibrate measures the cost model, GroundTruth
// answers exactly, and Advise tunes (k, L).
//
// # Sharded serving
//
// An Index is single-writer: Append must not overlap queries. For
// serving workloads that mutate under traffic, NewSharded partitions the
// points across S independent shards (WithShards, default 4) and answers
// Query/QueryBatch by parallel fan-out with a merged result set and
// aggregated ShardedQueryStats. Appends write-lock only the smallest
// shard while the rest keep serving (a query fanned out mid-append waits
// on that one shard before merging), and Delete tombstones ids
// immediately. On the same point slice a sharded index shares the
// unsharded index's id universe (point i keeps id i), and the reported
// sets agree up to the per-point δ failure probability — the shards draw
// independent hash functions, so the two structures may miss different
// neighbors that sit near the radius boundary. cmd/hybridserve exposes a
// sharded index over HTTP JSON (/query, /batch, /append, /delete,
// /compact, /snapshot, /stats, /healthz) with latency percentiles.
//
// # Serving modes
//
// The mode is an option, and Defaults reports it. Classic hybrid LSH
// buys recall with tables (L = 50 in the paper's setting).
// WithProbes(t) trades tables for probes instead (L2 only): each of far
// fewer tables (default 10) is probed at its home bucket plus the t
// neighboring buckets most likely to hold near points (Lv et al., VLDB
// 2007) — the memory-constrained mode, and the extension Section 5 of the
// paper names as the best fit for its hybrid strategy, since multi-probe
// inflates #collisions while the distinct candidate count saturates.
// QueryWith takes a per-call probe count (QueryOpts.Probes).
//
// Every classic or multi-probe index reports each true r-near neighbor
// with probability 1 − δ. WithCovering() closes the remaining δ for
// Hamming space with covering LSH (Pagh, SODA 2016; the second extension
// Section 5 names): 2^(r+1) − 1 mask tables drawn from a random map φ so
// that every point within the integer radius r ∈ [1, 12] shares a bucket
// with the query — probability 1, zero false negatives — which makes
// both hybrid paths exact and recall always 1.0. QueryWith narrows the
// radius per call (QueryOpts.Radius). A mode the metric does not serve is
// an error wrapping ErrUnsupportedOption.
//
// # Persistence
//
// Index and Sharded implement io.WriterTo over the versioned
// hybridlsh-snap/v1 snapshot format; Open and OpenSharded load a file of
// a given metric in whichever mode it holds, and a loaded index answers
// id-for-id identically to the saved one. See docs/SNAPSHOT_FORMAT.md
// for the layout and compatibility promise.
package hybridlsh

import (
	"repro/internal/core"
	"repro/internal/vector"
)

// Point representations, re-exported from the internal vector package.
type (
	// Dense is a dense float32 vector (the L2, L1 and Angular metrics).
	Dense = vector.Dense
	// Sparse is a sorted sparse vector (the Cosine metric).
	Sparse = vector.Sparse
	// Binary is a bit-packed binary vector (the Hamming and Jaccard metrics).
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

// QueryOpts are the per-query overrides QueryWith(q, opts) accepts on
// Index and Sharded: Probes (the multi-probe T) and Radius (a narrowed
// covering radius), each unset by default and set with Some. The zero
// value is Query; an option the index's mode does not support — probes
// on anything but a multi-probe index, radius on anything but a covering
// one — is an error wrapping ErrUnsupportedOption. Defaults returns the
// same struct as the index's mode: the options it supports, set to the
// values it was built with.
type QueryOpts = core.QueryOpts

// Some returns the set QueryOpts option n.
func Some(n int) core.OptInt { return core.Some(n) }

// ErrUnsupportedOption marks a QueryOpts option the queried index cannot
// honour, and a serving mode (WithProbes, WithCovering) the metric does
// not serve.
var ErrUnsupportedOption = core.ErrUnsupportedOption

// BatchResult is one query's outcome within Index.QueryBatch.
type BatchResult = core.BatchResult

// Recall returns |reported ∩ truth|/|truth| (order-insensitive).
func Recall(reported, truth []int32) float64 { return core.Recall(reported, truth) }
