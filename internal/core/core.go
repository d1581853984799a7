// Package core implements the paper's contribution: the hybrid search
// strategy for r-near neighbor reporting (Algorithm 2) on top of LSH hash
// tables with per-bucket HyperLogLog sketches (Algorithm 1), governed by
// the computational cost model of Equations (1) and (2):
//
//	LSHCost    = α·#collisions + β·candSize
//	LinearCost = β·n
//
// A query first reads its L bucket sizes (#collisions, exact) and merges
// the buckets' HLL sketches (candSize, estimated), then runs LSH-based
// search if LSHCost < LinearCost and an exact linear scan otherwise.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
)

// Strategy identifies which search path answered a query.
type Strategy int

// The two strategies Algorithm 2 chooses between.
const (
	StrategyLSH Strategy = iota
	StrategyLinear
)

// String returns "lsh" or "linear".
func (s Strategy) String() string {
	switch s {
	case StrategyLSH:
		return "lsh"
	case StrategyLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// CostModel holds the two machine- and workload-dependent constants of the
// paper's cost model: Alpha, the average cost of removing one duplicate
// (one visited-array probe + possible candidate append), and Beta, the
// cost of one distance computation. Only the ratio Beta/Alpha matters for
// the strategy decision; the paper picks 10, 10, 6 and 1 for Webspam,
// CoverType, Corel and MNIST respectively.
type CostModel struct {
	Alpha float64
	Beta  float64
}

// LSHCost evaluates Equation (1).
func (c CostModel) LSHCost(collisions int, candSize float64) float64 {
	return c.Alpha*float64(collisions) + c.Beta*candSize
}

// LinearCost evaluates Equation (2).
func (c CostModel) LinearCost(n int) float64 {
	return c.Beta * float64(n)
}

// Valid reports whether both constants are positive.
func (c CostModel) Valid() bool { return c.Alpha > 0 && c.Beta > 0 }

// Usable reports whether the model can safely drive strategy decisions:
// both constants positive and finite. SetCost and Restore accept only
// usable models, so a NaN or Inf produced by a bad refit can never reach
// the decision rule.
func (c CostModel) Usable() bool {
	return c.Valid() &&
		!math.IsNaN(c.Alpha) && !math.IsInf(c.Alpha, 0) &&
		!math.IsNaN(c.Beta) && !math.IsInf(c.Beta, 0)
}

// Config configures an Index over point type P.
type Config[P any] struct {
	// Family is the LSH family matching Distance.
	Family lsh.Family[P]
	// Distance is the metric of the rNNR instance.
	Distance distance.Func[P]
	// Radius is the reporting radius r.
	Radius float64
	// Delta is the per-point failure probability δ (default 0.1).
	Delta float64
	// L is the number of hash tables (default 50, the paper's setting).
	L int
	// K is the concatenation length; 0 derives it from the family's
	// p₁(Radius) via the paper's formula k = ⌈log(1−δ^{1/L})/log p₁⌉.
	K int
	// HLLRegisters is m (default 128, the paper's Table-1 setting).
	HLLRegisters int
	// HLLThreshold overrides the sketch-on-build bucket-size threshold;
	// 0 means HLLRegisters (the paper's rule).
	HLLThreshold int
	// Cost is the calibrated cost model; the zero value defers to
	// DefaultCostModel. Use Calibrate to measure it.
	Cost CostModel
	// Seed makes the whole index deterministic.
	Seed uint64
	// Store picks the point layout backing candidate verification; nil
	// defaults to the generic []P layout driven by Distance. The metric
	// constructors wire specialized struct-of-arrays layouts here
	// (pointstore.DenseL2Builder, pointstore.BinaryHammingBuilder).
	Store pointstore.Builder[P]
}

// DefaultCostModel is used when Config.Cost is zero. β/α = 8 sits between
// the paper's per-dataset choices (1–10); Calibrate replaces it with a
// measured value.
var DefaultCostModel = CostModel{Alpha: 1, Beta: 8}

// Index is the hybrid rNNR structure. It is safe for any number of
// concurrent queries after NewIndex returns, but it is single-writer:
// Append mutates the tables and the point slice without any internal
// locking, so it must never run concurrently with queries or with
// another Append. Callers that need concurrent mutation wrap Index in
// the shard package's Sharded, which partitions points across indexes
// and guards each with its own RWMutex — that is the supported
// concurrent path; do not add ad-hoc locking around a shared Index.
type Index[P any] struct {
	// Searcher is Algorithm 2 over this index's point store; the index
	// itself contributes the bucket collection (one per table).
	*Searcher[P]
	dist   distance.Func[P]
	family lsh.Family[P]
	radius float64
	delta  float64
	k      int
	p1     float64
	tables *lsh.Tables[P]
}

// NewIndex builds the hybrid index: L hash tables with per-bucket HLLs
// (Algorithm 1) plus the cost model. It returns an error on invalid
// configuration or if the family's collision probability at Radius is
// degenerate (0 or 1), which would make the parameter solver meaningless.
func NewIndex[P any](points []P, cfg Config[P]) (*Index[P], error) {
	if cfg.Family == nil {
		return nil, fmt.Errorf("core: Config.Family is nil")
	}
	if cfg.Distance == nil {
		return nil, fmt.Errorf("core: Config.Distance is nil")
	}
	if cfg.Radius <= 0 {
		return nil, fmt.Errorf("core: Config.Radius = %v, want > 0", cfg.Radius)
	}
	if cfg.Delta == 0 {
		cfg.Delta = 0.1
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("core: Config.Delta = %v, want in (0,1)", cfg.Delta)
	}
	if cfg.L == 0 {
		cfg.L = 50
	}
	if cfg.L < 1 {
		return nil, fmt.Errorf("core: Config.L = %d, want >= 1", cfg.L)
	}
	if cfg.HLLRegisters == 0 {
		cfg.HLLRegisters = 128
	}
	if (cfg.Cost != CostModel{}) && !cfg.Cost.Valid() {
		return nil, fmt.Errorf("core: Config.Cost = %+v, want positive constants", cfg.Cost)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel
	}

	p1 := cfg.Family.CollisionProb(cfg.Radius)
	k := cfg.K
	if k == 0 {
		if p1 <= 0 || p1 >= 1 {
			return nil, fmt.Errorf("core: collision probability p1(r=%v) = %v is degenerate; set Config.K explicitly", cfg.Radius, p1)
		}
		k = lsh.SolveK(p1, cfg.Delta, cfg.L)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: Config.K = %d, want >= 1", k)
	}

	tables, err := lsh.Build(points, cfg.Family, lsh.Params{
		K:            k,
		L:            cfg.L,
		HLLRegisters: cfg.HLLRegisters,
		HLLThreshold: cfg.HLLThreshold,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	if cfg.Store == nil {
		cfg.Store = pointstore.GenericBuilder(cfg.Distance)
	}
	store, err := cfg.Store(points)
	if err != nil {
		return nil, err
	}
	return &Index[P]{
		Searcher: NewSearcher(store, cfg.Cost, tables.Params().HLLRegisters),
		dist:     cfg.Distance,
		family:   cfg.Family,
		radius:   cfg.Radius,
		delta:    cfg.Delta,
		k:        k,
		p1:       p1,
		tables:   tables,
	}, nil
}

// RestoreConfig carries the decoded scalar state of a persisted Index;
// the structural state (points, tables) travels alongside in Restore.
type RestoreConfig[P any] struct {
	// Family is the reconstructed LSH family (hash functions themselves
	// live in the tables' hashers; the family is retained for its
	// collision-probability curve).
	Family lsh.Family[P]
	// Distance is the metric of the rNNR instance.
	Distance distance.Func[P]
	// Radius, Delta, P1 and Cost are the saved index's parameters; the
	// concatenation length k is taken from the tables' Params.
	Radius, Delta, P1 float64
	Cost              CostModel
	// Store picks the point layout (see Config.Store); nil defaults to
	// the generic layout over Distance.
	Store pointstore.Builder[P]
}

// Restore reassembles an Index from a decoded snapshot without
// rebuilding: the tables (hashers, buckets, sketches) are used as-is, so
// the restored index answers queries id-for-id identically to the saved
// one. Unlike NewIndex it accepts an empty point set (a fully compacted
// shard) and a degenerate P1 (the saved index may have been built with
// an explicit K).
func Restore[P any](points []P, tables *lsh.Tables[P], cfg RestoreConfig[P]) (*Index[P], error) {
	if cfg.Family == nil {
		return nil, fmt.Errorf("core: Restore with nil family")
	}
	if cfg.Distance == nil {
		return nil, fmt.Errorf("core: Restore with nil distance")
	}
	if tables == nil {
		return nil, fmt.Errorf("core: Restore with nil tables")
	}
	if tables.N() != len(points) {
		return nil, fmt.Errorf("core: Restore with %d points but tables over %d", len(points), tables.N())
	}
	if !(cfg.Radius > 0) || math.IsInf(cfg.Radius, 0) {
		return nil, fmt.Errorf("core: Restore radius = %v, want positive and finite", cfg.Radius)
	}
	if !(cfg.Delta > 0 && cfg.Delta < 1) {
		return nil, fmt.Errorf("core: Restore delta = %v, want in (0,1)", cfg.Delta)
	}
	if !(cfg.P1 >= 0 && cfg.P1 <= 1) {
		return nil, fmt.Errorf("core: Restore p1 = %v, want in [0,1]", cfg.P1)
	}
	if !cfg.Cost.Usable() {
		return nil, fmt.Errorf("core: Restore cost = %+v, want positive finite constants", cfg.Cost)
	}
	if cfg.Store == nil {
		cfg.Store = pointstore.GenericBuilder(cfg.Distance)
	}
	store, err := cfg.Store(points)
	if err != nil {
		return nil, err
	}
	return &Index[P]{
		Searcher: NewSearcher(store, cfg.Cost, tables.Params().HLLRegisters),
		dist:     cfg.Distance,
		family:   cfg.Family,
		radius:   cfg.Radius,
		delta:    cfg.Delta,
		k:        tables.Params().K,
		p1:       cfg.P1,
		tables:   tables,
	}, nil
}

// Radius returns the reporting radius the index was built for.
func (ix *Index[P]) Radius() float64 { return ix.radius }

// K returns the concatenation length in use.
func (ix *Index[P]) K() int { return ix.k }

// Delta returns the per-point failure probability the index was built
// for.
func (ix *Index[P]) Delta() float64 { return ix.delta }

// Family returns the LSH family the index draws its hash functions
// from.
func (ix *Index[P]) Family() lsh.Family[P] { return ix.family }

// L returns the number of hash tables.
func (ix *Index[P]) L() int { return ix.tables.L() }

// P1 returns the family's collision probability at the index radius.
func (ix *Index[P]) P1() float64 { return ix.p1 }

// Tables exposes the underlying LSH structure (read-only) for the probing
// extensions and white-box experiments.
func (ix *Index[P]) Tables() *lsh.Tables[P] { return ix.tables }

// DistanceTo returns the index metric's distance between stored point id
// and q. It panics if id is out of range.
func (ix *Index[P]) DistanceTo(id int32, q P) float64 {
	return ix.dist(ix.store.At(id), q)
}

// Point returns the stored point with the given id.
func (ix *Index[P]) Point(id int32) P { return ix.store.At(id) }

// Append adds points to the index, assigning ids from the current N
// upward. The per-bucket sketches are maintained incrementally (HLLs only
// ever absorb insertions), so hybrid decisions stay accurate.
//
// Append is the single-writer side of the Index contract: it must not
// run concurrently with Query, QueryBatch, or another Append — it grows
// ix.points and the bucket slices in place, and a racing reader observes
// torn state (verified by the race detector). The shard package provides
// the concurrency-safe wrapper; use it instead of external locking when
// queries and appends overlap. Note that k was solved for the build-time
// radius and δ — appending does not retune parameters.
func (ix *Index[P]) Append(points []P) error {
	if len(points) == 0 {
		return nil
	}
	if err := ix.tables.Append(points); err != nil {
		return err
	}
	return ix.store.Append(points)
}

// Compact returns a new index without the points marked dead
// (len(dead) must equal N). The drawn hash functions are kept — no
// surviving point is re-hashed — while every bucket drops its dead ids,
// survivors are renumbered by their rank among survivors (point i's new
// id is the number of live points before i, so relative order is
// preserved), and the per-bucket HLL sketches are rebuilt from the live
// ids. The result's strategy decision therefore counts zero dead points
// in all three cost-model inputs: LinearCost uses the live n, #collisions
// sums buckets holding only live ids, and candSize estimates over
// live-only sketches. Answers are id-for-id the receiver's answers minus
// the dead points (modulo the renumbering).
//
// The receiver is read, not modified, and stays fully usable — callers
// such as shard.Sharded build the compacted index while the old one keeps
// serving reads, then swap. Compact may run concurrently with queries on
// the receiver but not with Append (the usual single-writer contract).
// If no point is marked dead the receiver itself is returned.
func (ix *Index[P]) Compact(dead []bool) (*Index[P], error) {
	if len(dead) != ix.store.Len() {
		return nil, fmt.Errorf("core: Compact with %d dead flags for %d points", len(dead), ix.store.Len())
	}
	remap := make([]int32, len(dead))
	live := 0
	for i, d := range dead {
		if d {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		live++
	}
	if live == ix.store.Len() {
		return ix, nil
	}
	store, err := ix.store.Compact(dead, live)
	if err != nil {
		return nil, err
	}
	tables, err := ix.tables.Compact(remap, live)
	if err != nil {
		return nil, err
	}
	return &Index[P]{
		Searcher: NewSearcher(store, ix.Cost(), tables.Params().HLLRegisters),
		dist:     ix.dist,
		family:   ix.family,
		radius:   ix.radius,
		delta:    ix.delta,
		k:        ix.k,
		p1:       ix.p1,
		tables:   tables,
	}, nil
}

// QueryStats reports what one query did; every experiment in the paper is
// an aggregation of these.
type QueryStats struct {
	// Strategy is the path that produced the results.
	Strategy Strategy
	// Collisions is Σ bucket sizes over the L probed buckets (exact).
	Collisions int
	// EstCandidates is the HLL estimate of the distinct candidate count
	// when Estimated is true; otherwise the decision was short-circuited
	// by a collision-count bound and EstCandidates holds that bound.
	EstCandidates float64
	// Estimated reports whether the L bucket sketches were actually
	// merged. The decision rule skips the merge when a bound already
	// settles it: candSize ≤ #collisions (so a winning upper bound
	// commits to LSH), and LSHCost ≥ α·#collisions (so a losing lower
	// bound commits to linear).
	Estimated bool
	// Candidates is the number of distinct candidates actually examined
	// (LSH path) or n (linear path).
	Candidates int
	// Results is the number of points reported within the radius.
	Results int
	// EstimateTime covers Algorithm-2 steps 1–3: bucket size collection,
	// HLL merge and the cost comparison.
	EstimateTime time.Duration
	// SearchTime covers the chosen search (S2 dedup + S3 distances, or
	// the linear scan).
	SearchTime time.Duration
	// LSHCost and LinearCost are the two sides of the decision.
	LSHCost    float64
	LinearCost float64
}

// TotalTime returns estimation plus search time.
func (s QueryStats) TotalTime() time.Duration { return s.EstimateTime + s.SearchTime }

// ChosenCost returns the cost-model prediction for the strategy that
// actually ran: LSHCost for the LSH path, LinearCost for the scan. The
// drift monitor divides the measured search time by this to get a
// nanoseconds-per-cost-unit figure per strategy; when the α/β
// calibration still matches the machine, the two strategies' figures
// agree.
func (s QueryStats) ChosenCost() float64 {
	if s.Strategy == StrategyLSH {
		return s.LSHCost
	}
	return s.LinearCost
}

// EstimateErrorRatio returns the HLL estimate divided by the actual
// distinct candidate count, and whether that ratio is meaningful for
// this query: it requires an LSH-path answer (only the bucket walk
// counts distinct candidates; the linear scan's Candidates is n) whose
// decision actually merged the sketches (short-circuited decisions
// record a bound, not an estimate) and saw at least one candidate. A
// well-calibrated estimator keeps the ratio near 1; sustained skew is
// the signal that the per-bucket sketches have drifted from the live
// data distribution.
func (s QueryStats) EstimateErrorRatio() (float64, bool) {
	if s.Strategy != StrategyLSH || !s.Estimated || s.Candidates <= 0 {
		return 0, false
	}
	return s.EstCandidates / float64(s.Candidates), true
}

// Query answers one rNNR query with the hybrid strategy (Algorithm 2):
// estimate LSHCost from bucket sizes and merged HLLs, compare with
// LinearCost, and run the cheaper search. The returned ids are distinct
// but in unspecified order (sorting is not part of the paper's cost model;
// callers that need order sort the ids themselves).
func (ix *Index[P]) Query(q P) ([]int32, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	return ix.answer(q, ix.radius, st.buckets, st, t0)
}

// EstimateCandSize always performs the full O(m·L) sketch merge — no
// short-circuits — and returns the collision count, the candSize estimate
// and the time the merge took. Table 1 measures exactly this operation.
func (ix *Index[P]) EstimateCandSize(q P) (collisions int, est float64, elapsed time.Duration) {
	st := ix.getState()
	defer ix.states.Put(st)
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	collisions = lsh.Collisions(st.buckets)
	est = lsh.EstimateCandidates(st.buckets, st.sketch)
	return collisions, est, time.Since(t0)
}

// QueryLSH forces the classic LSH-based search (see Searcher.AnswerLSH).
func (ix *Index[P]) QueryLSH(q P) ([]int32, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	return ix.answerLSH(q, ix.radius, st.buckets, st, t0)
}

// QueryLinear forces the exact linear scan (see Searcher.Scan).
func (ix *Index[P]) QueryLinear(q P) ([]int32, QueryStats) { return ix.Scan(q, ix.radius) }

// DecideStrategy runs only steps 1–3 of Algorithm 2 and returns the
// decision without searching. The ablation experiments use it to compare
// the HLL-based decision against an oracle.
func (ix *Index[P]) DecideStrategy(q P) (Strategy, QueryStats) {
	st := ix.getState()
	defer ix.states.Put(st)
	t0 := time.Now()
	st.buckets = ix.tables.LookupInto(q, st.buckets)
	return ix.decideOnly(st.buckets, st, t0)
}

// GroundTruth reports the exact result set of a query by linear scan; the
// recall experiments compare strategy outputs against it.
func GroundTruth[P any](points []P, dist distance.Func[P], q P, r float64) []int32 {
	var out []int32
	for i := range points {
		if dist(points[i], q) <= r {
			out = append(out, int32(i))
		}
	}
	return out
}

// Recall returns |reported ∩ truth| / |truth|; it is 1 for an empty truth
// set. Neither slice needs to be sorted; the inputs are not modified.
func Recall(reported, truth []int32) float64 {
	if len(truth) == 0 {
		return 1
	}
	rep := append([]int32(nil), reported...)
	tr := append([]int32(nil), truth...)
	slices.Sort(rep)
	slices.Sort(tr)
	hits, i, j := 0, 0, 0
	for i < len(rep) && j < len(tr) {
		switch {
		case rep[i] < tr[j]:
			i++
		case rep[i] > tr[j]:
			j++
		default:
			hits++
			i++
			j++
		}
	}
	return float64(hits) / float64(len(tr))
}
