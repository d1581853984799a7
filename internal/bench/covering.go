package bench

import (
	"fmt"
	"io"

	hybridlsh "repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// coveringRadii is the swept covering radii: the practical small-radius
// regime where 2^(r+1)−1 tables stay affordable.
var coveringRadii = []int{2, 3, 4}

// CoveringRow is one radius of the covering-vs-classic comparison on the
// MNIST-like Hamming workload. The covering columns measure the
// guaranteed-recall structure (recall is 1.0 by construction — the row
// records the measured value so drift would be visible), the classic
// columns the paper's bit-sampling index with L tables at the same
// radius and cost model.
type CoveringRow struct {
	Radius int `json:"radius"`
	// Tables is the covering table count 2^(r+1)−1.
	Tables int `json:"tables"`
	// CoverRecall is the measured recall of forced covering-LSH search
	// vs exact ground truth (must be 1.0 — the scheme's guarantee).
	CoverRecall float64 `json:"cover_recall"`
	// CoverQueryUS is the mean per-query wall time (µs) of the covering
	// index's hybrid Query.
	CoverQueryUS float64 `json:"cover_query_us"`
	// CoverCollisions and CoverCandidates are per-query means over the
	// covering bucket set; their gap is the duplication the per-bucket
	// sketches let the hybrid decision price.
	CoverCollisions float64 `json:"cover_collisions"`
	CoverCandidates float64 `json:"cover_candidates"`
	// CoverLinearPct is the share of hybrid decisions that fell back to
	// the exact linear scan (also recall 1.0 — both paths are exact).
	CoverLinearPct float64 `json:"cover_linear_pct"`
	// ClassicRecall and ClassicQueryUS are the classic hybrid index's
	// forced-LSH recall and hybrid query time at the same radius.
	ClassicRecall  float64 `json:"classic_recall"`
	ClassicQueryUS float64 `json:"classic_query_us"`
}

// CoveringResult reports the guaranteed-recall experiment: covering LSH
// vs the classic bit-sampling hybrid index across small Hamming radii.
type CoveringResult struct {
	Dataset  string        `json:"dataset"`
	N        int           `json:"n"`
	Metric   string        `json:"metric"`
	ClassicL int           `json:"classic_l"`
	Rows     []CoveringRow `json:"rows"`
	// AllExact reports whether every covering row measured recall
	// exactly 1.0 — the defining no-false-negatives property.
	AllExact bool `json:"all_exact"`
}

// CoveringExperiment measures what the covering guarantee costs on the
// MNIST-like binary workload: for each small radius it builds the
// covering index (2^(r+1)−1 mask tables, recall 1.0 guaranteed) and the
// classic bit-sampling hybrid index (L tables, recall 1−δ), and compares
// recall and hybrid query latency on the same queries, ground truth and
// cost model.
func CoveringExperiment(cfg Config) (*CoveringResult, error) {
	ds := dataset.MNISTLike(cfg.Scale, cfg.Seed)
	data, queries, err := splitQueries(cfg, ds.Points)
	if err != nil {
		return nil, err
	}
	cost := costModel(cfg, PaperRatioMNIST, func() core.CostModel {
		return hybridlsh.Calibrate(hybridlsh.Hamming, data, 0, 0, cfg.Seed+2)
	})
	runs := max(cfg.Runs, 1)

	res := &CoveringResult{
		Dataset: "mnist-like", N: len(data), Metric: "hamming", ClassicL: cfg.L,
		AllExact: true,
	}
	for _, r := range coveringRadii {
		truth := make([][]int32, len(queries))
		for i, q := range queries {
			truth[i] = hybridlsh.GroundTruth(hybridlsh.Hamming, data, q, float64(r))
		}

		cov, err := hybridlsh.New(hybridlsh.Hamming, data, float64(r), cfg.options(cost, cfg.Seed+21, hybridlsh.WithCovering())...)
		if err != nil {
			return nil, fmt.Errorf("bench: building covering index (r=%d): %w", r, err)
		}
		classic, err := hybridlsh.New(hybridlsh.Hamming, data, float64(r), cfg.options(cost, cfg.Seed+21)...)
		if err != nil {
			return nil, fmt.Errorf("bench: building classic Hamming index (r=%d): %w", r, err)
		}

		// Recall of the structures themselves: forced LSH search, so the
		// linear fallback cannot mask misses.
		cm := measureLSH(queries, truth, 1, cov.QueryLSH)
		km := measureLSH(queries, truth, 1, classic.QueryLSH)
		// Latency of the serving path: the hybrid Query (which also
		// yields the linear-fallback share).
		ch := measureLSH(queries, truth, runs, cov.Query)
		kh := measureLSH(queries, truth, runs, classic.Query)
		if cm.recall != 1 {
			res.AllExact = false
		}
		res.Rows = append(res.Rows, CoveringRow{
			Radius:          r,
			Tables:          cov.L(),
			CoverRecall:     cm.recall,
			CoverQueryUS:    ch.queryUS,
			CoverCollisions: cm.collisions,
			CoverCandidates: cm.candidates,
			CoverLinearPct:  100 * float64(ch.linear) / float64(len(queries)),
			ClassicRecall:   km.recall,
			ClassicQueryUS:  kh.queryUS,
		})
	}
	return res, nil
}

// PrintCovering renders the comparison like the other tables.
func PrintCovering(w io.Writer, res *CoveringResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s classic L=%d\n",
		res.Dataset, res.N, res.Metric, res.ClassicL)
	fmt.Fprintf(w, "  %2s %7s %12s %12s %9s %14s %12s\n",
		"r", "tables", "cover rec", "cover µs/q", "linear%", "classic rec", "classic µs/q")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %2d %7d %12.3f %12.1f %8.1f%% %14.3f %12.1f\n",
			row.Radius, row.Tables, row.CoverRecall, row.CoverQueryUS,
			row.CoverLinearPct, row.ClassicRecall, row.ClassicQueryUS)
	}
	if res.AllExact {
		fmt.Fprintf(w, "  covering recall 1.000 at every radius (the zero-false-negatives guarantee held)\n")
	} else {
		fmt.Fprintf(w, "  WARNING: a covering row measured recall < 1 — the guarantee is broken\n")
	}
}
