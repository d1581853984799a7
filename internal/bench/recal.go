package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/obs"
	"repro/internal/pointstore"
)

// RecalResult reports the drift-injection experiment: how far a stale
// cost model drags the per-shard strategy decisions away from what a
// freshly calibrated model would choose, and how much of that agreement
// online recalibration wins back from nothing but the drift monitor's
// ns-per-cost-unit windows.
type RecalResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	Shards  int     `json:"shards"`
	Queries int     `json:"queries"`
	// Answers is the number of (query, shard) decisions each agreement
	// figure is measured over.
	Answers int `json:"answers"`
	// SkewFactor s is the injected staleness: the serving model starts at
	// (s·α, β/s), a β/α ratio s² away from the fresh calibration — the
	// kind of gap a hardware migration or load shift opens over time.
	SkewFactor float64 `json:"skew_factor"`
	// FreshBetaOverAlpha / SkewedBetaOverAlpha / RefitBetaOverAlpha track
	// the decision ratio through the experiment: the freshly calibrated
	// ground truth, the injected stale model, and where the refits landed.
	FreshBetaOverAlpha  float64 `json:"fresh_beta_over_alpha"`
	SkewedBetaOverAlpha float64 `json:"skewed_beta_over_alpha"`
	RefitBetaOverAlpha  float64 `json:"refit_beta_over_alpha"`
	// MatchBefore / MatchAfter are the headline numbers: the fraction of
	// per-shard strategy decisions agreeing with the fresh model's
	// decisions, under the stale model and after recalibration. The
	// acceptance bar is MatchAfter >= MatchBefore.
	MatchBefore float64 `json:"match_before"`
	MatchAfter  float64 `json:"match_after"`
	// LSHShareFresh/Before/After give the decision mix behind the
	// agreement figures (fraction of answers that ran the LSH path).
	LSHShareFresh  float64 `json:"lsh_share_fresh"`
	LSHShareBefore float64 `json:"lsh_share_before"`
	LSHShareAfter  float64 `json:"lsh_share_after"`
	// Refits counts adopted refits; TimeRatioBefore/After bracket the
	// drift signal (p50 LSH over linear ns-per-cost-unit, 1 = calibrated).
	Refits          int64   `json:"refits"`
	TimeRatioBefore float64 `json:"time_ratio_before"`
	TimeRatioAfter  float64 `json:"time_ratio_after"`
}

// recalSkews are the staleness factors the experiment tries, largest
// first: a bigger skew flips more decisions (clearer before/after), but
// can flip all of them, starving one strategy arm of the window samples
// a refit needs — in that case the next smaller skew is used.
var recalSkews = []float64{4, 2, 1.5}

// maxRecalRounds bounds the refit loop. The β correction is exact but
// the α correction is a fixed-point iteration, and when β dominates
// both cost formulas (β/α ≫ cand/coll) each step only recovers part of
// the α gap — a few rounds cover convergence with margin.
const maxRecalRounds = 8

// recalDeadBand is the experiment's refit trigger band, tighter than
// the serving default (obs.DefaultDeadBand): drift injected into one
// constant shows up attenuated in time_ratio when the other constant
// dominates both cost formulas, and a controlled experiment wants the
// trigger deterministic, not riding the band's edge.
const recalDeadBand = 0.05

// RecalExperiment closes the drift loop end to end on the Corel-like L2
// workload: calibrate a fresh cost model, record the strategy decision
// every (query, shard) answer makes under it, then swap in a skewed
// model (s·α, β/s) to simulate a calibration gone stale. Traffic under
// the stale model fills the drift monitor's per-strategy windows; the
// recalibrator watches the windows' time_ratio and refits α/β from them
// alone — no probe traffic, no re-measurement of the data. The headline
// comparison is decision agreement with the fresh model before vs after
// the refits.
func RecalExperiment(cfg Config) (*RecalResult, error) {
	data, queries, r := corelWorkload(cfg)

	fresh, err := core.CalibrateChecked(data, pointstore.GenericBuilder(distance.L2), 0, 0, cfg.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("bench: recal experiment needs a clean calibration: %w", err)
	}

	sh, err := corelSharded(cfg, data, r, fresh)
	if err != nil {
		return nil, fmt.Errorf("bench: building recal-experiment index: %w", err)
	}

	// pass runs the whole query set once under the currently installed
	// model, returning each (query, shard) answer's strategy in shard
	// order and feeding mon (when non-nil) exactly like a serving layer.
	pass := func(mon *obs.DriftMonitor) []core.Strategy {
		dec := make([]core.Strategy, 0, len(queries)*corelShards)
		for _, q := range queries {
			_, st := sh.Query(q)
			for _, qs := range st.PerShard {
				dec = append(dec, qs.Strategy)
			}
			if mon != nil {
				mon.RecordQuery(st)
			}
		}
		return dec
	}

	// Ground truth: the fresh model's decisions (installed at build).
	decFresh := pass(nil)

	// Inject staleness in whichever direction actually flips decisions:
	// an LSH-heavy fresh mix is pushed toward linear (LSH made to look
	// expensive), a linear-heavy one toward LSH. Largest skew whose
	// traffic still samples both arms wins — RefitCost needs evidence
	// from both strategies.
	towardLinear := lshShare(decFresh) >= 0.5
	var (
		mon       *obs.DriftMonitor
		skew      float64
		skewed    core.CostModel
		decBefore []core.Strategy
	)
	for _, s := range recalSkews {
		m := core.CostModel{Alpha: fresh.Alpha * s, Beta: fresh.Beta / s}
		if !towardLinear {
			m = core.CostModel{Alpha: fresh.Alpha / s, Beta: fresh.Beta * s}
		}
		if err := sh.SetCost(m); err != nil {
			return nil, fmt.Errorf("bench: injecting drift: %w", err)
		}
		probe := obs.NewDriftMonitor(obs.DefaultDriftWindow)
		dec := pass(probe)
		snap := probe.Snapshot()
		if snap.LSHNsPerCost.Count > 0 && snap.LinearNsPerCost.Count > 0 {
			mon, skew, skewed, decBefore = probe, s, m, dec
			break
		}
	}
	if mon == nil {
		return nil, fmt.Errorf("bench: every drift skew in %v starved a strategy arm; cannot refit", recalSkews)
	}
	ratioBefore := mon.Snapshot().TimeRatio

	// The acting half: a recalibrator over the same windows a serving
	// process would watch. MinSamples is a light evidence floor — each
	// pass contributes len(queries)·shards answers split across the arms.
	rc := obs.NewRecalibrator(nil, mon, sh.Cost, sh.SetCost,
		obs.RecalibratorConfig{DeadBand: recalDeadBand, MinSamples: 8}, nil)
	for i := 0; i < maxRecalRounds; i++ {
		if !rc.Check() {
			break // inside the dead band (or an arm starved): converged
		}
		pass(mon) // refill the reset windows under the refitted model
	}
	decAfter := pass(mon)
	ratioAfter := mon.Snapshot().TimeRatio

	res := &RecalResult{
		Dataset: "corel-like", N: len(data), Metric: "l2", Radius: r,
		Shards: corelShards, Queries: len(queries), Answers: len(decFresh),
		SkewFactor:          skew,
		FreshBetaOverAlpha:  fresh.BetaOverAlpha(),
		SkewedBetaOverAlpha: skewed.BetaOverAlpha(),
		RefitBetaOverAlpha:  sh.Cost().BetaOverAlpha(),
		MatchBefore:         matchFraction(decFresh, decBefore),
		MatchAfter:          matchFraction(decFresh, decAfter),
		LSHShareFresh:       lshShare(decFresh),
		LSHShareBefore:      lshShare(decBefore),
		LSHShareAfter:       lshShare(decAfter),
		Refits:              rc.Refits(),
		TimeRatioBefore:     ratioBefore,
		TimeRatioAfter:      ratioAfter,
	}
	return res, nil
}

// lshShare returns the fraction of decisions that took the LSH path.
func lshShare(dec []core.Strategy) float64 {
	if len(dec) == 0 {
		return 0
	}
	n := 0
	for _, d := range dec {
		if d == core.StrategyLSH {
			n++
		}
	}
	return float64(n) / float64(len(dec))
}

// matchFraction returns the fraction of positions where the two decision
// vectors agree. Both come from identical passes over the same queries
// against the same shards, so positions line up one to one.
func matchFraction(a, b []core.Strategy) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// PrintRecal renders the drift-loop experiment like the other tables.
func PrintRecal(w io.Writer, res *RecalResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s radius=%.3g shards=%d queries=%d answers=%d\n",
		res.Dataset, res.N, res.Metric, res.Radius, res.Shards, res.Queries, res.Answers)
	fmt.Fprintf(w, "  %-10s %12s %12s %12s\n", "model", "β/α", "match", "LSH share")
	fmt.Fprintf(w, "  %-10s %12.3f %12s %12.2f\n", "fresh", res.FreshBetaOverAlpha, "1.00", res.LSHShareFresh)
	fmt.Fprintf(w, "  %-10s %12.3f %12.2f %12.2f\n", "stale", res.SkewedBetaOverAlpha, res.MatchBefore, res.LSHShareBefore)
	fmt.Fprintf(w, "  %-10s %12.3f %12.2f %12.2f\n", "refitted", res.RefitBetaOverAlpha, res.MatchAfter, res.LSHShareAfter)
	fmt.Fprintf(w, "  skew ×%g  refits %d  time_ratio %.3f -> %.3f\n",
		res.SkewFactor, res.Refits, res.TimeRatioBefore, res.TimeRatioAfter)
}
