package core

import (
	"slices"
	"time"

	"repro/internal/hll"
	"repro/internal/lsh"
)

// The query surface, written once for every serving mode: each method
// hands its queries to one block loop (blocks), which resolves the
// options, hashes the queries and collects each one's bucket set — the
// only step that depends on the mode — for Algorithm 2 (decide, then
// searchBuckets or searchLinear). A single query is a block of one. The
// ...With variants take per-query overrides checked against the mode
// descriptor (QueryOpts.Resolve): a probe count on a multi-probe index,
// a narrowed radius on a covering one.

// queryState is the per-query scratch: the generation-stamped visited
// array used for duplicate removal (the paper's step S2), the HLL merge
// target, the lookup scratch, the block's keys (table-major) with the
// hashers' projection scratch, the deduplicated candidate ids handed to
// the store's batch verifier, QueryBlock's answer ids and the block of
// one a lone query is looked up as. Pooling it keeps queries
// allocation-free in steady state.
type queryState[P any] struct {
	visited []uint32
	gen     uint32
	sketch  *hll.Sketch
	look    lsh.Scratch
	keys    []uint64
	hash    lsh.KeyScratch
	cand    []int32
	out     []int32
	one     [1]P
}

// getState draws a pooled query state, growing its visited array if the
// index has been appended to since the state was created.
func (ix *Index[P]) getState() *queryState[P] {
	st := ix.states.Get().(*queryState[P])
	if n := ix.store.Len(); len(st.visited) < n {
		st.visited = make([]uint32, n)
		st.gen = 0
	}
	return st
}

// resolve checks o against the index's mode and the queries against its
// dimension, and returns the probe count and radius the queries run with.
func (ix *Index[P]) resolve(o QueryOpts, queries []P) (int, float64, error) {
	if err := CheckDims(ix.dim, queries, "query"); err != nil {
		return 0, 0, err
	}
	o, err := o.Resolve(ix.mode)
	if err != nil {
		return 0, 0, err
	}
	r := ix.radius
	if o.Radius.Set {
		r = float64(o.Radius.N)
	}
	return o.Probes.Or(ix.mode.Probes.N), r, nil
}

// MaxBlock is the most queries a block lookup hashes at once: a larger
// block is answered in blocks of MaxBlock.
const MaxBlock = 64

// blocks is the one lookup path. It draws one pooled query state,
// resolves o against queries and calls each(i, q, r, buckets, st, t0)
// for every query i in order: r is its radius, buckets its bucket set
// (aliasing st). A lone query comes as lone instead, with queries nil,
// and is looked up as the state's block of one, so that no single-query
// method allocates a block. A classic or covering index hashes up to
// MaxBlock queries into every table first (BlockKeys), then looks each
// up from those keys (LookupKeys); a multi-probe index looks up each
// query's probe sequence in turn (ProbeInto). t0 is when the query's
// lookup started, moved back by its equal share of the block's hashing.
// A query of the wrong dimension fails the block before any is looked
// up.
func (ix *Index[P]) blocks(queries []P, lone *P, o QueryOpts, each func(i int, q P, r float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time)) error {
	st := ix.getState()
	defer func() {
		clear(st.one[:]) // the pool must not keep a caller's point alive
		ix.states.Put(st)
	}()
	if lone != nil {
		st.one[0] = *lone
		queries = st.one[:]
	}
	t, r, err := ix.resolve(o, queries)
	if err != nil {
		return err
	}
	for base := 0; base < len(queries); base += MaxBlock {
		blk := queries[base:min(len(queries), base+MaxBlock)]
		var share time.Duration
		if t == 0 {
			t0 := time.Now()
			st.keys = ix.tables.BlockKeys(blk, st.keys, &st.hash)
			share = time.Since(t0) / time.Duration(len(blk))
		}
		for i, q := range blk {
			t0 := time.Now().Add(-share)
			var buckets []lsh.Bucket
			if t == 0 {
				buckets = ix.tables.LookupKeys(st.keys, i, len(blk), &st.look)
			} else {
				buckets = ix.tables.ProbeInto(q, t, &st.look)
			}
			each(base+i, q, r, buckets, st, t0)
		}
	}
	return nil
}

// Defaults implements Store: the mode descriptor — T on a multi-probe
// index, the built radius on a covering one, nothing on a classic one.
func (ix *Index[P]) Defaults() QueryOpts { return ix.mode }

// Query answers one rNNR query with the hybrid strategy (Algorithm 2):
// estimate LSHCost from bucket sizes and merged HLLs, compare with
// LinearCost, and run the cheaper search. The returned ids are distinct
// but in unspecified order (sorting is not part of the paper's cost model;
// callers that need order sort the ids themselves). A query of the
// wrong dimension panics.
func (ix *Index[P]) Query(q P) ([]int32, QueryStats) {
	ids, stats, err := ix.QueryWith(q, QueryOpts{})
	must(err)
	return ids, stats
}

// must panics with err, if any: the zero QueryOpts cannot fail, so for
// the query methods without an error result only a query of the wrong
// dimension lands here, and it panics on the caller's goroutine.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// QueryWith is Query under per-query overrides. The zero QueryOpts is
// Query exactly; Probes sets T on a multi-probe index (0 probes home
// buckets only), Radius narrows a covering index's report — both paths
// stay exact, since the points within r' ≤ r are a subset of those the
// tables cover. Any other set option is ErrUnsupportedOption, and a
// query of the wrong dimension an error too.
func (ix *Index[P]) QueryWith(q P, o QueryOpts) (ids []int32, stats QueryStats, err error) {
	err = ix.blocks(nil, &q, o, func(_ int, q P, r float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time) {
		ids, stats = ix.answer(q, r, buckets, st, t0, nil)
	})
	return ids, stats, err
}

// EstimateCandSize always performs the full O(m·L) sketch merge — no
// short-circuits — and returns the collision count, the candSize estimate
// and the time the bucket collection and the merge took. Table 1
// measures exactly this operation.
func (ix *Index[P]) EstimateCandSize(q P) (collisions int, est float64, elapsed time.Duration) {
	must(ix.blocks(nil, &q, QueryOpts{}, func(_ int, _ P, _ float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time) {
		collisions = lsh.Collisions(buckets)
		est = ix.tables.Estimate(buckets, st.sketch)
		elapsed = time.Since(t0)
	}))
	return collisions, est, elapsed
}

// QueryLSH forces the LSH-based search over the index's bucket set (no
// estimation, no fallback) — the "LSH" baseline of Figure 2. Timing uses
// Query's decomposition: EstimateTime covers the bucket collection and
// the collision count, SearchTime only the S2 dedup + S3 distance
// computations.
func (ix *Index[P]) QueryLSH(q P) ([]int32, QueryStats) {
	ids, stats, err := ix.QueryLSHWith(q, QueryOpts{})
	must(err)
	return ids, stats
}

// QueryLSHWith is QueryLSH under per-query overrides (see QueryWith).
func (ix *Index[P]) QueryLSHWith(q P, o QueryOpts) (ids []int32, stats QueryStats, err error) {
	err = ix.blocks(nil, &q, o, func(_ int, q P, r float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time) {
		stats.Strategy = StrategyLSH
		stats.Collisions = lsh.Collisions(buckets)
		stats.EstimateTime = time.Since(t0)
		t1 := time.Now()
		ids = ix.searchBuckets(q, r, buckets, st, &stats, nil)
		stats.SearchTime = time.Since(t1)
	})
	return ids, stats, err
}

// QueryLinear forces the exact linear scan at the built radius — the
// "Linear" baseline of Figure 2. A forced scan does no bucket lookup and
// no estimation, so EstimateTime is genuinely zero and SearchTime is the
// whole scan.
func (ix *Index[P]) QueryLinear(q P) ([]int32, QueryStats) {
	must(CheckDims(ix.dim, []P{q}, "query"))
	var stats QueryStats
	stats.Strategy = StrategyLinear
	t0 := time.Now()
	out := ix.searchLinear(q, ix.radius, &stats, nil)
	stats.SearchTime = time.Since(t0)
	return out, stats
}

// DecideStrategy runs only steps 1–3 of Algorithm 2 and returns the
// decision without searching. The ablation experiments use it to compare
// the HLL-based decision against an oracle.
func (ix *Index[P]) DecideStrategy(q P) (Strategy, QueryStats) {
	s, stats, err := ix.DecideStrategyWith(q, QueryOpts{})
	must(err)
	return s, stats
}

// DecideStrategyWith is DecideStrategy under per-query overrides (see
// QueryWith): the decision QueryWith would take with the same options.
func (ix *Index[P]) DecideStrategyWith(q P, o QueryOpts) (Strategy, QueryStats, error) {
	var stats QueryStats
	err := ix.blocks(nil, &q, o, func(_ int, _ P, _ float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time) {
		stats.Strategy = ix.decide(buckets, st, &stats)
		stats.EstimateTime = time.Since(t0)
	})
	return stats.Strategy, stats, err
}

// decide runs Algorithm-2 steps 1–3 into stats: collision counting, the
// HLL merge (unless a collision bound already settles the comparison) and
// the cost evaluation. It returns the chosen strategy.
func (ix *Index[P]) decide(buckets []lsh.Bucket, st *queryState[P], stats *QueryStats) Strategy {
	// One atomic load per decision: the whole comparison runs against a
	// consistent (α, β) pair even when SetCost swaps the model mid-query.
	cost := *ix.cost.Load()
	stats.Collisions = lsh.Collisions(buckets)
	stats.LinearCost = cost.LinearCost(ix.store.Len())
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
	stats.EstCandidates = ix.tables.Estimate(buckets, st.sketch)
	stats.LSHCost = cost.LSHCost(stats.Collisions, stats.EstCandidates)
	if stats.LSHCost < stats.LinearCost {
		return StrategyLSH
	}
	return StrategyLinear
}

// answer answers one rNNR query at radius r with the hybrid strategy
// over the given bucket set: decide from bucket sizes and merged
// sketches, then run the dedup bucket search or the exact linear scan,
// whichever is cheaper, appending the ids to out. t0 is when the bucket
// collection started, so EstimateTime covers lookup and decision alike.
func (ix *Index[P]) answer(q P, r float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time, out []int32) ([]int32, QueryStats) {
	var stats QueryStats
	stats.Strategy = ix.decide(buckets, st, &stats)
	stats.EstimateTime = time.Since(t0)

	t1 := time.Now()
	if stats.Strategy == StrategyLSH {
		out = ix.searchBuckets(q, r, buckets, st, &stats, out)
	} else {
		out = ix.searchLinear(q, r, &stats, out)
	}
	stats.SearchTime = time.Since(t1)
	return out, stats
}

// QueryBlock answers every query of block under the options o, as
// QueryWith does, and calls emit(i, ids, stats) for query i, in order;
// ids is valid only during the call. Every query's EstimateTime carries
// its share of its block's hashing (see blocks). A query of the wrong
// dimension fails the block before any is answered.
func (ix *Index[P]) QueryBlock(block []P, o QueryOpts, emit func(i int, ids []int32, stats QueryStats)) error {
	return ix.blocks(block, nil, o, func(i int, q P, r float64, buckets []lsh.Bucket, st *queryState[P], t0 time.Time) {
		var stats QueryStats
		st.out, stats = ix.answer(q, r, buckets, st, t0, st.out[:0])
		emit(i, st.out, stats)
	})
}

// searchBuckets is the paper's steps S2 + S3, restructured for batch
// verification: walk the probed buckets and remove duplicates (S2,
// collect), then hand the distinct candidates to the store's
// VerifyRadius (S3) — which runs the unrolled distance kernels over its
// own layout and, when quantized, pre-filters against the SQ8 copy
// before the exact re-check.
func (ix *Index[P]) searchBuckets(q P, r float64, buckets []lsh.Bucket, st *queryState[P], stats *QueryStats, out []int32) []int32 {
	cand := st.collect(buckets)
	stats.Candidates = len(cand)
	n := len(out)
	out = ix.store.VerifyRadius(q, cand, r, out)
	stats.Results = len(out) - n
	return out
}

// collect is the paper's step S2: it gathers the distinct ids of buckets
// into the pooled candidate buffer, in first-occurrence order, under a
// fresh generation of the visited array.
func (st *queryState[P]) collect(buckets []lsh.Bucket) []int32 {
	st.gen++
	if st.gen == 0 {
		// Generation counter wrapped: clear stamps and restart.
		clear(st.visited)
		st.gen = 1
	}
	cand := st.cand[:0]
	for i := range buckets {
		if ids := buckets[i].Narrow(); ids != nil {
			cand = dedup(st.visited, st.gen, ids, cand)
		} else {
			cand = dedup(st.visited, st.gen, buckets[i].IDs, cand)
		}
	}
	st.cand = cand
	return cand
}

// dedup appends to cand the ids whose visited stamp is not gen, in the
// order they come, and stamps every id with gen: one duplicate-removal
// step per id, the α of the cost model (Calibrate times this function).
// The body has no branch: every id is stored into room grown once per
// call and kept by advancing past it only when its stamp was stale, so
// a run of duplicates costs no misprediction. The ids come in either
// slab width.
func dedup[S lsh.ID](visited []uint32, gen uint32, ids []S, cand []int32) []int32 {
	n := len(cand)
	cand = slices.Grow(cand, len(ids))[:n+len(ids)]
	for _, id := range ids {
		stale := visited[id] != gen
		visited[id] = gen
		cand[n] = int32(id)
		if stale {
			n++
		}
	}
	return cand[:n]
}

// searchLinear scans all points, appending the ids within r to out; it
// is exact.
func (ix *Index[P]) searchLinear(q P, r float64, stats *QueryStats, out []int32) []int32 {
	n := len(out)
	out = ix.store.ScanRadius(q, r, out)
	stats.Candidates = ix.store.Len()
	stats.Results = len(out) - n
	return out
}
