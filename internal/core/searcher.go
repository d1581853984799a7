package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/pointstore"
)

// Searcher is Algorithm 2 over an externally probed bucket set — the
// paper's observation (§3.3) that the candSize estimate and the
// LSH-vs-linear decision do not depend on which buckets a scheme probes,
// made a type. It owns what every scheme shares: the point store that
// verifies candidates, the cost model, and the pooled per-query scratch.
// A scheme embeds it and contributes only its bucket collection: the
// classic Index probes one bucket per table, multi-probe LSH (T+1)·L
// buckets of a wrapped Index, covering LSH one bucket per mask table.
//
// The query methods are safe for any number of concurrent calls; the
// store follows the embedding index's single-writer contract.
type Searcher[P any] struct {
	store pointstore.Store[P]
	// cost is the calibrated model behind Cost()/SetCost: an atomic
	// pointer so online recalibration can swap constants mid-traffic
	// without a lock on the query path (decide loads it once per query).
	cost   atomic.Pointer[CostModel]
	states sync.Pool // *queryState
}

// queryState is the per-query scratch: the generation-stamped visited
// array used for duplicate removal (the paper's step S2), the HLL merge
// target, the bucket-lookup slice, and the deduplicated candidate-id
// buffer handed to the store's batch verifier. Pooling it keeps queries
// allocation-free in steady state.
type queryState struct {
	visited []uint32
	gen     uint32
	sketch  *hll.Sketch
	buckets []*lsh.Bucket
	cand    []int32
}

// NewSearcher wires a searcher over store deciding with cost; m is the
// register count of the bucket sketches it will merge.
func NewSearcher[P any](store pointstore.Store[P], cost CostModel, m int) *Searcher[P] {
	s := &Searcher[P]{store: store}
	s.cost.Store(&cost)
	// The visited array is sized when a state is first drawn, not here,
	// so states created after an Append fit the grown store.
	s.states.New = func() any {
		return &queryState{visited: make([]uint32, store.Len()), sketch: hll.New(m)}
	}
	return s
}

// PointStore exposes the point store, for the embedding index's Append
// and Compact.
func (s *Searcher[P]) PointStore() pointstore.Store[P] { return s.store }

// N returns the number of indexed points.
func (s *Searcher[P]) N() int { return s.store.Len() }

// Points exposes the stored point slice (read-only; mutating it corrupts
// the index). It exists for serialization. With a struct-of-arrays
// layout the returned headers alias the store's flat backing; they stay
// id-aligned, which the shard compaction hand-off relies on.
func (s *Searcher[P]) Points() []P { return s.store.Slice() }

// StoreStats returns the point store's layout and verification counters
// (quantization mode, pre-filter rejections, refits).
func (s *Searcher[P]) StoreStats() pointstore.Stats { return s.store.Stats() }

// Cost returns the cost model in use. It is safe to call concurrently
// with queries and with SetCost.
func (s *Searcher[P]) Cost() CostModel { return *s.cost.Load() }

// SetCost swaps the cost model driving the LINEAR-vs-LSH decision. The
// swap is atomic: it may run concurrently with any number of queries
// (each query decides with the model it loaded at decision time) and
// with other SetCost calls — it is the one mutation exempt from the
// index's single-writer contract, because it touches no index structure.
// Models with non-positive, NaN or Inf constants are rejected, so a
// degenerate refit can never poison the decision rule.
func (s *Searcher[P]) SetCost(c CostModel) error {
	if !c.Usable() {
		return fmt.Errorf("core: SetCost(%+v), want positive finite constants", c)
	}
	s.cost.Store(&c)
	return nil
}

// getState draws a pooled query state, growing its visited array if the
// index has been appended to since the state was created.
func (s *Searcher[P]) getState() *queryState {
	st := s.states.Get().(*queryState)
	if n := s.store.Len(); len(st.visited) < n {
		st.visited = make([]uint32, n)
		st.gen = 0
	}
	return st
}

// decide runs Algorithm-2 steps 1–3 into stats: collision counting, the
// HLL merge (unless a collision bound already settles the comparison) and
// the cost evaluation. It returns the chosen strategy.
func (s *Searcher[P]) decide(buckets []*lsh.Bucket, st *queryState, stats *QueryStats) Strategy {
	// One atomic load per decision: the whole comparison runs against a
	// consistent (α, β) pair even when SetCost swaps the model mid-query.
	cost := *s.cost.Load()
	stats.Collisions = lsh.Collisions(buckets)
	stats.LinearCost = cost.LinearCost(s.store.Len())
	// Short-circuit 1: candSize ≤ #collisions, so if the pessimistic
	// LSHCost already beats linear there is nothing to estimate.
	if upper := cost.LSHCost(stats.Collisions, float64(stats.Collisions)); upper < stats.LinearCost {
		stats.EstCandidates = float64(stats.Collisions)
		stats.LSHCost = upper
		return StrategyLSH
	}
	// Short-circuit 2: LSHCost ≥ α·#collisions, so if that lower bound
	// alone reaches LinearCost the scan wins regardless of candSize.
	if lower := cost.Alpha * float64(stats.Collisions); lower >= stats.LinearCost {
		stats.EstCandidates = float64(stats.Collisions)
		stats.LSHCost = lower
		return StrategyLinear
	}
	stats.Estimated = true
	stats.EstCandidates = lsh.EstimateCandidates(buckets, st.sketch)
	stats.LSHCost = cost.LSHCost(stats.Collisions, stats.EstCandidates)
	if stats.LSHCost < stats.LinearCost {
		return StrategyLSH
	}
	return StrategyLinear
}

// Answer answers one rNNR query at radius r with the hybrid strategy
// (Algorithm 2) over the given bucket set: decide from bucket sizes and
// merged sketches, then run the dedup bucket search or the exact linear
// scan, whichever is cheaper. The buckets' ids are interpreted against
// the searcher's store. t0 is when the caller started collecting the
// buckets, so EstimateTime covers lookup and decision alike.
func (s *Searcher[P]) Answer(q P, r float64, buckets []*lsh.Bucket, t0 time.Time) ([]int32, QueryStats) {
	st := s.getState()
	defer s.states.Put(st)
	return s.answer(q, r, buckets, st, t0)
}

func (s *Searcher[P]) answer(q P, r float64, buckets []*lsh.Bucket, st *queryState, t0 time.Time) ([]int32, QueryStats) {
	var stats QueryStats
	stats.Strategy = s.decide(buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)

	t1 := time.Now()
	var out []int32
	if stats.Strategy == StrategyLSH {
		out = s.searchBuckets(q, r, buckets, st, &stats)
	} else {
		out = s.searchLinear(q, r, &stats)
	}
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// AnswerLSH forces the LSH-based search over the given bucket set (no
// estimation, no fallback) — the "LSH" baseline of Figure 2. Timing uses
// Answer's decomposition: EstimateTime covers the bucket collection since
// t0 and the collision count, SearchTime only the S2 dedup + S3 distance
// computations.
func (s *Searcher[P]) AnswerLSH(q P, r float64, buckets []*lsh.Bucket, t0 time.Time) ([]int32, QueryStats) {
	st := s.getState()
	defer s.states.Put(st)
	return s.answerLSH(q, r, buckets, st, t0)
}

func (s *Searcher[P]) answerLSH(q P, r float64, buckets []*lsh.Bucket, st *queryState, t0 time.Time) ([]int32, QueryStats) {
	var stats QueryStats
	stats.Strategy = StrategyLSH
	stats.Collisions = lsh.Collisions(buckets)
	stats.EstimateTime = time.Since(t0)
	t1 := time.Now()
	out := s.searchBuckets(q, r, buckets, st, &stats)
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// Decide runs only steps 1–3 of Algorithm 2 over the given bucket set and
// returns the decision without searching (t0 as in Answer).
func (s *Searcher[P]) Decide(buckets []*lsh.Bucket, t0 time.Time) (Strategy, QueryStats) {
	st := s.getState()
	defer s.states.Put(st)
	return s.decideOnly(buckets, st, t0)
}

func (s *Searcher[P]) decideOnly(buckets []*lsh.Bucket, st *queryState, t0 time.Time) (Strategy, QueryStats) {
	var stats QueryStats
	stats.Strategy = s.decide(buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)
	return stats.Strategy, stats
}

// Scan forces the exact linear scan at radius r — the "Linear" baseline
// of Figure 2. A forced scan does no bucket lookup and no estimation, so
// EstimateTime is genuinely zero and SearchTime is the whole scan.
func (s *Searcher[P]) Scan(q P, r float64) ([]int32, QueryStats) {
	var stats QueryStats
	stats.Strategy = StrategyLinear
	t0 := time.Now()
	out := s.searchLinear(q, r, &stats)
	stats.SearchTime = time.Since(t0)
	return out, stats
}

// searchBuckets is the paper's steps S2 + S3, restructured for batch
// verification: walk the probed buckets and remove duplicates with the
// generation-stamped visited array (S2), collecting the distinct
// candidate ids into the pooled scratch buffer, then hand the whole
// batch to the store's VerifyRadius (S3) — which runs the unrolled
// distance kernels over its own layout and, when quantized, pre-filters
// against the SQ8 copy before the exact re-check.
func (s *Searcher[P]) searchBuckets(q P, r float64, buckets []*lsh.Bucket, st *queryState, stats *QueryStats) []int32 {
	st.gen++
	if st.gen == 0 {
		// Generation counter wrapped: clear stamps and restart.
		clear(st.visited)
		st.gen = 1
	}
	gen := st.gen
	cand := st.cand[:0]
	for _, b := range buckets {
		for _, id := range b.IDs {
			if st.visited[id] == gen {
				continue
			}
			st.visited[id] = gen
			cand = append(cand, id)
		}
	}
	st.cand = cand
	stats.Candidates = len(cand)
	out := s.store.VerifyRadius(q, cand, r, nil)
	stats.Results = len(out)
	return out
}

// searchLinear scans all points; it is exact.
func (s *Searcher[P]) searchLinear(q P, r float64, stats *QueryStats) []int32 {
	out := s.store.ScanRadius(q, r, nil)
	stats.Candidates = s.store.Len()
	stats.Results = len(out)
	return out
}
