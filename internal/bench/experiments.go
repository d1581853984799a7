package bench

import (
	"fmt"

	hybridlsh "repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Config scales the paper's experiments. The zero value is NOT usable;
// call DefaultConfig.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = paper scale;
	// benchmarks default to 0.05 so `go test -bench` stays laptop-sized).
	Scale float64 `json:"scale"`
	// Queries is the query-set size (paper: 100).
	Queries int `json:"queries"`
	// L, M, Delta are the LSH/HLL parameters (paper: 50, 128, 0.1).
	L     int     `json:"l"`
	M     int     `json:"m"`
	Delta float64 `json:"delta"`
	// Seed drives data generation and index construction.
	Seed uint64 `json:"seed"`
	// Calibrate measures β/α on the data when true; otherwise the paper's
	// per-dataset ratios are used directly.
	Calibrate bool `json:"calibrate"`
	// Runs is how many times the query set is re-timed; the reported
	// times are the mean (the paper averages 5 runs).
	Runs int `json:"runs"`
}

// DefaultConfig returns the paper's parameters at the given scale.
func DefaultConfig(scale float64) Config {
	return Config{Scale: scale, Queries: 100, L: 50, M: 128, Delta: 0.1, Seed: 1, Calibrate: true, Runs: 1}
}

// The paper's chosen β/α ratios (Section 4.2) when calibration is off.
const (
	PaperRatioWebspam   = 10
	PaperRatioCoverType = 10
	PaperRatioCorel     = 6
	PaperRatioMNIST     = 1
)

// splitQueries splits the run's query set off points, or fails if it would take them all.
func splitQueries[P any](cfg Config, points []P) (data, queries []P, err error) {
	if cfg.Queries >= len(points) {
		return nil, nil, fmt.Errorf("-queries %d: the dataset has only %d points", cfg.Queries, len(points))
	}
	data, queries = dataset.SplitQueries(points, cfg.Queries, cfg.Seed+1)
	return data, queries, nil
}

// options are the index options every experiment shares: the run's δ, L
// and m, an experiment's cost model (zero keeps the index default) and
// construction seed, then the experiment's own.
func (cfg Config) options(cost core.CostModel, seed uint64, more ...hybridlsh.Option) []hybridlsh.Option {
	return append([]hybridlsh.Option{
		hybridlsh.WithDelta(cfg.Delta),
		hybridlsh.WithTables(cfg.L),
		hybridlsh.WithHLLRegisters(cfg.M),
		hybridlsh.WithCostModel(cost),
		hybridlsh.WithSeed(seed),
	}, more...)
}

// figure2 runs one Figure-2 panel over points under m: split off the
// query set, fix the cost model (calibrated on the data, or the paper's
// ratio) and sweep the paper's radii, building one index per radius
// through hybridlsh.New with the metric's defaults, which are the
// paper's k and w. The calibration and the indexes verify through the
// store every index under m serves with.
func figure2[P any](cfg Config, name string, m hybridlsh.Metric[P], points []P, radii []float64, paperRatio float64) (*Fig2Result, error) {
	data, queries, err := splitQueries(cfg, points)
	if err != nil {
		return nil, err
	}
	cost := costModel(cfg, paperRatio, func() core.CostModel {
		return hybridlsh.Calibrate(m, data, 0, 0, cfg.Seed+2)
	})
	build := func(r float64) (*hybridlsh.Index[P], error) {
		return hybridlsh.New(m, data, r, cfg.options(cost, cfg.Seed+3)...)
	}
	return RunSweep(name, m.String(), data, queries, radii, build, cfg.Runs)
}

// MNISTExperiment reproduces Figure 2a: Hamming distance on 64-bit
// fingerprints, radii 12–17, bit-sampling LSH.
func MNISTExperiment(cfg Config) (*Fig2Result, error) {
	ds := dataset.MNISTLike(cfg.Scale, cfg.Seed)
	return figure2(cfg, "mnist-like", hybridlsh.Hamming, ds.Points, ds.Meta.PaperRadii, PaperRatioMNIST)
}

// WebspamExperiment reproduces Figure 2b (and the Figure 3 series): cosine
// distance, radii 0.05–0.10, SimHash.
func WebspamExperiment(cfg Config) (*Fig2Result, error) {
	ds := dataset.WebspamLike(cfg.Scale, cfg.Seed)
	return figure2(cfg, "webspam-like", hybridlsh.Cosine, ds.Points, ds.Meta.PaperRadii, PaperRatioWebspam)
}

// CoverTypeExperiment reproduces Figure 2c: L1 distance, radii 3000–4000,
// Cauchy p-stable LSH with the paper's k = 8, w = 4r.
func CoverTypeExperiment(cfg Config) (*Fig2Result, error) {
	ds := dataset.CoverTypeLike(cfg.Scale, cfg.Seed)
	return figure2(cfg, "covertype-like", hybridlsh.L1, ds.Points, ds.Meta.PaperRadii, PaperRatioCoverType)
}

// CorelExperiment reproduces Figure 2d: L2 distance, radii 0.35–0.60,
// Gaussian p-stable LSH with the paper's k = 7, w = 2r.
func CorelExperiment(cfg Config) (*Fig2Result, error) {
	ds := dataset.CorelLike(cfg.Scale, cfg.Seed)
	return figure2(cfg, "corel-like", hybridlsh.L2, ds.Points, ds.Meta.PaperRadii, PaperRatioCorel)
}

// Table1Experiment reproduces Table 1 across all four datasets: the HLL
// estimation cost share and estimate error in the small-radius regime.
func Table1Experiment(cfg Config) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 4)
	for _, exp := range []struct {
		name string
		run  func(Config) (*Fig2Result, error)
	}{
		{"webspam-like", WebspamExperiment},
		{"covertype-like", CoverTypeExperiment},
		{"corel-like", CorelExperiment},
		{"mnist-like", MNISTExperiment},
	} {
		res, err := exp.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: table 1 %s: %w", exp.name, err)
		}
		// Table 1 is measured "for a small range of radii where LSH-based
		// search significantly outperforms linear search": keep the rows
		// where LSH won and average those.
		small := &Fig2Result{Dataset: res.Dataset, BetaOverAlpha: res.BetaOverAlpha}
		for _, row := range res.Rows {
			if row.LSHSec < row.LinearSec {
				small.Rows = append(small.Rows, row)
			}
		}
		if len(small.Rows) == 0 {
			small.Rows = res.Rows[:1] // degenerate workload: report smallest radius
		}
		rows = append(rows, Table1FromSweep(small))
	}
	return rows, nil
}

// costModel picks between the paper's fixed ratio and a calibrated one.
func costModel(cfg Config, paperRatio float64, calibrate func() core.CostModel) core.CostModel {
	if cfg.Calibrate {
		return calibrate()
	}
	return core.CostModel{Alpha: 1, Beta: paperRatio}
}
