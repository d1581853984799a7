package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/pointstore"
	"repro/internal/rng"
)

// ErrDegenerateCalibration is returned (wrapped) by CalibrateChecked when
// the timed loops ran faster than the clock can resolve, so at least one
// measured constant came out non-positive and the result is a floor
// fallback rather than a measurement. Callers that adopt cost models
// programmatically — the online refitter above all — must treat such a
// model as meaningless instead of silently serving with β/α = 1.
var ErrDegenerateCalibration = errors.New("core: degenerate calibration timings (clock granularity); constants are floor fallbacks, not measurements")

// Calibrate measures the cost-model constants on this machine for a given
// point type and point store, mirroring the paper's procedure ("we use a
// random set of 100 queries and 10,000 data points for choosing the
// ratio β/α"):
//
//   - β is the mean wall time of verifying one candidate, measured
//     through the store the index verifies with: build (the index's own
//     Config.Store builder) lays out the sampled points and each sampled
//     query runs VerifyRadius over all of them at an all-accepting
//     radius — so a store with a batch or SIMD kernel is priced at what
//     that kernel costs, not at a pair-by-pair distance call the
//     searcher never makes;
//   - α is the mean wall time of one duplicate-removal step — a
//     generation-stamped visited-array probe and stamp, timed through
//     dedup, the function searchBuckets runs per collision.
//
// The returned CostModel is expressed in nanoseconds; only the β/α ratio
// matters to the decision rule. queries and sample default to the paper's
// 100 and 10,000 when 0.
//
// Degenerate timings (clock granularity on very fast ops) are floored so
// the model stays Valid, but such a model carries no information — use
// CalibrateChecked when the outcome decides whether to adopt the model.
func Calibrate[P any](points []P, build pointstore.Builder[P], queries, sample int, seed uint64) CostModel {
	c, _ := CalibrateChecked(points, build, queries, sample, seed)
	return c
}

// CalibrateChecked is Calibrate with the degenerate-timing fallback
// surfaced: when either constant had to be floored (see
// ErrDegenerateCalibration) the floored-but-Valid model is returned
// together with the error, so callers choose between logging-and-serving
// and refusing to adopt it. A nil error means both constants are genuine
// measurements. If build refuses the sample (points of mixed dimension)
// the error is returned with DefaultCostModel.
func CalibrateChecked[P any](points []P, build pointstore.Builder[P], queries, sample int, seed uint64) (CostModel, error) {
	if queries <= 0 {
		queries = 100
	}
	if sample <= 0 {
		sample = 10000
	}
	if sample > len(points) {
		sample = len(points)
	}
	r := rng.New(seed)

	// --- β: candidate verifications of random queries against a store of
	// randomly sampled points, in the store's own layout and kernel.
	qIdx := make([]int, queries)
	for i := range qIdx {
		qIdx[i] = r.Intn(len(points))
	}
	sampled := make([]P, sample)
	cand := make([]int32, sample)
	for i := range sampled {
		sampled[i] = points[r.Intn(len(points))]
		cand[i] = int32(i)
	}
	store, err := build(sampled)
	if err != nil {
		return DefaultCostModel, fmt.Errorf("core: calibration store: %w", err)
	}
	out := make([]int32, 0, sample)
	t0 := time.Now()
	for _, qi := range qIdx {
		out = store.VerifyRadius(points[qi], cand, math.Inf(1), out[:0])
	}
	beta := float64(time.Since(t0).Nanoseconds()) / float64(queries*sample)

	// --- α: duplicate-removal steps over realistic bucket structure: L
	// bucket slices of random ids walked by dedup, the function the
	// search's S2 phase runs, against a visited array of the true size
	// (so its random accesses miss the cache as a query's do). An untimed
	// first pass marks every id; the timed passes then see duplicates only.
	visited := make([]uint32, len(points))
	const nBuckets = 50
	buckets := make([][]int32, nBuckets)
	perBucket := sample/nBuckets + 1
	for b := range buckets {
		ids := make([]int32, perBucket)
		for i := range ids {
			ids[i] = int32(r.Intn(len(points)))
		}
		buckets[b] = ids
	}
	const gen = 1
	var seen []int32
	for _, ids := range buckets { // warm pass: mark everything
		seen = dedup(visited, gen, ids, seen)
	}
	reps := 20
	var steps int
	t1 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, ids := range buckets {
			seen = dedup(visited, gen, ids, seen[:0])
			steps += len(ids)
		}
	}
	alpha := float64(time.Since(t1).Nanoseconds()) / float64(steps)
	return checkCalibration(alpha, beta)
}

// checkCalibration applies the degenerate-timing floors and reports
// whether it had to: a non-positive α or β means the timed loop beat the
// clock's resolution, so the floored model (α = 0.5, β = α ⇒ β/α = 1) is
// a placeholder, not a measurement. Split out of CalibrateChecked so the
// fallback policy is testable without racing a real clock.
func checkCalibration(alpha, beta float64) (CostModel, error) {
	var err error
	if alpha <= 0 {
		alpha = 0.5
		err = fmt.Errorf("%w: alpha <= 0", ErrDegenerateCalibration)
	}
	if beta <= 0 {
		beta = alpha
		if err == nil {
			err = fmt.Errorf("%w: beta <= 0", ErrDegenerateCalibration)
		}
	}
	return CostModel{Alpha: alpha, Beta: beta}, err
}

// BetaOverAlpha is a convenience accessor for the calibrated ratio the
// paper reports per dataset (10, 10, 6, 1).
func (c CostModel) BetaOverAlpha() float64 {
	if c.Alpha == 0 {
		return 0
	}
	return c.Beta / c.Alpha
}
