package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/vector"
)

// The T-vs-L sweep grid: every multi-probe table count is strictly below
// the classic baseline's L, and T = 0 rows isolate what the extra tables
// would have bought without probing.
var (
	multiProbeTables = []int{5, 10, 20}
	multiProbeProbes = []int{0, 4, 10, 20, 40, 80}
)

// MultiProbeMatchSlack is how far below the classic baseline's recall a
// sweep row may sit and still count as "matching" it (recall is a mean
// over ~100 queries, so exact equality is noise-hostile).
const MultiProbeMatchSlack = 0.01

// MultiProbeRow is one (L, T) cell of the sweep: recall and cost of
// multi-probe LSH search with L tables and T extra probes per table.
type MultiProbeRow struct {
	L      int `json:"l"`
	Probes int `json:"probes"`
	// Recall is the mean LSH-path recall vs exact ground truth (the
	// hybrid path's linear fallback would mask the structure's recall,
	// so the sweep forces LSH search).
	Recall float64 `json:"recall"`
	// QueryUS is the mean per-query wall time (µs) of the forced LSH
	// search, averaged over the configured runs.
	QueryUS float64 `json:"query_us"`
	// Collisions and Candidates are per-query means over the probed
	// bucket set; their ratio is the duplication multi-probe inflates
	// and candSize estimation tames.
	Collisions float64 `json:"collisions"`
	Candidates float64 `json:"candidates"`
	// LinearPct is the share of hybrid decisions that picked the linear
	// scan at this (L, T) — how often the cost model judged the probed
	// bucket set too dense to walk.
	LinearPct float64 `json:"linear_pct"`
}

// MultiProbeResult reports the T-vs-L sweep against the classic
// baseline: the paper's L = 50 single-probe index on the same data,
// radius and k.
type MultiProbeResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	K       int     `json:"k"`
	// The classic baseline (T is not applicable; one bucket per table).
	PlainL       int     `json:"plain_l"`
	PlainRecall  float64 `json:"plain_recall"`
	PlainQueryUS float64 `json:"plain_query_us"`
	// Rows is the sweep, grouped by L in multiProbeTables order.
	Rows []MultiProbeRow `json:"rows"`
	// Matched reports whether some T > 0 row with strictly fewer tables
	// reaches the baseline recall (within MultiProbeMatchSlack);
	// MatchedL/MatchedProbes identify the cheapest such row (fewest
	// tables, then fewest probes).
	Matched       bool `json:"matched"`
	MatchedL      int  `json:"matched_l"`
	MatchedProbes int  `json:"matched_probes"`
}

// MultiProbeExperiment measures the multi-probe trade on the Corel-like
// L2 workload at the middle radius: how few tables, probing T extra
// buckets each, reach the recall the classic index buys with L = 50.
// Each multi-probe index is built once per L and swept over T via the
// per-query probe override, so the sweep isolates probing cost from
// construction noise.
func MultiProbeExperiment(cfg Config) (*MultiProbeResult, error) {
	data, queries, r := corelWorkload(cfg)
	const k = 7
	w := 2 * r

	truth := make([][]int32, len(queries))
	for i, q := range queries {
		truth[i] = core.GroundTruth(data, distance.L2, q, r)
	}
	runs := max(cfg.Runs, 1)

	res := &MultiProbeResult{
		Dataset: "corel-like", N: len(data), Metric: "l2", Radius: r, K: k,
		PlainL: cfg.L,
	}

	plain, err := core.NewIndex(data, cfg.corelConfig(r, core.CostModel{}, cfg.Seed+11))
	if err != nil {
		return nil, fmt.Errorf("bench: building classic baseline: %w", err)
	}
	pm := measureLSH(queries, truth, runs, plain.QueryLSH)
	res.PlainRecall, res.PlainQueryUS = pm.recall, pm.queryUS

	for _, l := range multiProbeTables {
		mp, err := multiprobe.New(data, multiprobe.Config{
			Family:       lsh.NewPStableL2(dataset.CorelDim, w),
			Distance:     distance.L2,
			Radius:       r,
			Delta:        cfg.Delta,
			K:            k,
			L:            l,
			Probes:       multiProbeProbes[len(multiProbeProbes)-1],
			HLLRegisters: cfg.M,
			Seed:         cfg.Seed + 11,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: building multi-probe index (L=%d): %w", l, err)
		}
		for _, t := range multiProbeProbes {
			m := measureLSH(queries, truth, runs, func(q vector.Dense) ([]int32, core.QueryStats) {
				return mp.QueryLSHProbes(q, t)
			})
			linear := 0
			for _, q := range queries {
				if strat, _ := mp.DecideStrategyProbes(q, t); strat == core.StrategyLinear {
					linear++
				}
			}
			res.Rows = append(res.Rows, MultiProbeRow{
				L: l, Probes: t,
				Recall:     m.recall,
				QueryUS:    m.queryUS,
				Collisions: m.collisions,
				Candidates: m.candidates,
				LinearPct:  100 * float64(linear) / float64(len(queries)),
			})
		}
	}

	for _, row := range res.Rows {
		if row.Probes == 0 || row.L >= res.PlainL {
			continue
		}
		if row.Recall+MultiProbeMatchSlack < res.PlainRecall {
			continue
		}
		if !res.Matched || row.L < res.MatchedL || (row.L == res.MatchedL && row.Probes < res.MatchedProbes) {
			res.Matched, res.MatchedL, res.MatchedProbes = true, row.L, row.Probes
		}
	}
	return res, nil
}

// lshMeasure is one forced-LSH pass over the query set: per-query
// means of recall, wall time, collisions and distinct candidates, plus
// the count of queries whose stats report the linear strategy (always 0
// on forced-LSH passes; meaningful when the measured function is the
// hybrid Query).
type lshMeasure struct {
	recall, queryUS, collisions, candidates float64
	linear                                  int
}

// measureLSH times one forced query function over the query set
// (timing averaged over runs; recall and counts from the run-invariant
// first pass). The covering experiment reuses it over binary points.
func measureLSH[P any](queries []P, truth [][]int32, runs int,
	query func(P) ([]int32, core.QueryStats)) lshMeasure {
	var m lshMeasure
	var wall time.Duration
	for run := 0; run < runs; run++ {
		for i, q := range queries {
			t0 := time.Now()
			out, st := query(q)
			wall += time.Since(t0)
			if run == 0 {
				m.recall += core.Recall(out, truth[i])
				m.collisions += float64(st.Collisions)
				m.candidates += float64(st.Candidates)
				if st.Strategy == core.StrategyLinear {
					m.linear++
				}
			}
		}
	}
	nq := float64(len(queries))
	m.recall /= nq
	m.collisions /= nq
	m.candidates /= nq
	m.queryUS = wall.Seconds() * 1e6 / (nq * float64(runs))
	return m
}

// PrintMultiProbe renders the sweep like the other tables.
func PrintMultiProbe(w io.Writer, res *MultiProbeResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s r=%v k=%d\n",
		res.Dataset, res.N, res.Metric, res.Radius, res.K)
	fmt.Fprintf(w, "  classic baseline: L=%d  recall=%.3f  %.1fµs/query\n",
		res.PlainL, res.PlainRecall, res.PlainQueryUS)
	fmt.Fprintf(w, "  %4s %6s %8s %10s %12s %12s %9s\n",
		"L", "T", "recall", "µs/query", "collisions", "candidates", "linear%")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %4d %6d %8.3f %10.1f %12.1f %12.1f %8.1f%%\n",
			row.L, row.Probes, row.Recall, row.QueryUS, row.Collisions, row.Candidates, row.LinearPct)
	}
	if res.Matched {
		fmt.Fprintf(w, "  matched classic recall with L=%d, T=%d (%.1f%% of the baseline's tables)\n",
			res.MatchedL, res.MatchedProbes, 100*float64(res.MatchedL)/float64(res.PlainL))
	} else {
		fmt.Fprintf(w, "  no swept (L, T>0) configuration matched classic recall within %.2f\n", MultiProbeMatchSlack)
	}
}
