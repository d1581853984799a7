// Command hybridbench regenerates every table and figure of the paper's
// evaluation (Section 4) on the synthetic dataset substitutes:
//
//	hybridbench -exp table1            # Table 1: HLL cost and error
//	hybridbench -exp fig2a             # Figure 2a: MNIST, Hamming
//	hybridbench -exp fig2b             # Figure 2b: Webspam, cosine
//	hybridbench -exp fig2c             # Figure 2c: CoverType, L1
//	hybridbench -exp fig2d             # Figure 2d: Corel, L2
//	hybridbench -exp fig3              # Figure 3: Webspam output sizes & LS%
//	hybridbench -exp multiprobe        # multi-probe T vs L at fixed recall
//	hybridbench -exp covering          # covering LSH: guaranteed recall vs classic Hamming
//	hybridbench -exp serve             # serving-layer observability overhead (bare vs instrumented)
//	hybridbench -exp recal             # drift injection: online α/β refit vs a stale cost model
//	hybridbench -exp all               # everything
//
// The -scale flag multiplies the paper's dataset sizes (default 0.05 so a
// full run finishes in minutes; use -scale 1 for paper scale). -paperratio
// replaces the calibrated cost model with the paper's per-dataset β/α
// ratios (10, 10, 6, 1), which reproduces the Figure-3 strategy-decision
// shape exactly; by default β/α is measured on this machine. -json FILE
// additionally writes every result of the run as one machine-readable
// report (schema hybridlsh-bench/v1) so the perf trajectory can be
// diffed across commits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := cli(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hybridbench:", err)
		os.Exit(1)
	}
}

// cli is main without the exit: it parses args, runs the chosen
// experiments and writes the -json report. A run that fails or panics
// leaves no report file behind.
func cli(args []string) (err error) {
	fs := flag.NewFlagSet("hybridbench", flag.ExitOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: "+strings.Join(names(), ", ")+", all")
		scale      = fs.Float64("scale", 0.05, "fraction of the paper's dataset sizes (1.0 = paper scale)")
		queries    = fs.Int("queries", 100, "query-set size (paper: 100)")
		runs       = fs.Int("runs", 5, "timing runs to average (paper: 5)")
		seed       = fs.Uint64("seed", 1, "generation/construction seed")
		paperRatio = fs.Bool("paperratio", false, "use the paper's fixed β/α ratios instead of calibrating")
		jsonPath   = fs.String("json", "", "also write all results as one machine-readable JSON file (e.g. BENCH_results.json)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	xs, err := pick(*exp)
	if err != nil {
		return err
	}
	if *queries < 1 {
		return fmt.Errorf("-queries %d: want at least 1", *queries)
	}
	if !(*scale > 0) {
		return fmt.Errorf("-scale %v: want a fraction above 0", *scale)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", *runs)
	}
	cfg := bench.DefaultConfig(*scale)
	cfg.Queries = *queries
	cfg.Runs = *runs
	cfg.Seed = *seed
	cfg.Calibrate = !*paperRatio

	e := env{cfg: cfg}
	if *jsonPath != "" {
		// The run meta is stamped once here, before any experiment runs,
		// so every report this invocation writes carries an identical
		// meta block.
		e.rep = bench.NewJSONReport(cfg)
		// Open the output before the (potentially minutes-long) run so an
		// unwritable path fails fast instead of discarding the results.
		f, ferr := os.Create(*jsonPath)
		if ferr != nil {
			return ferr
		}
		// err is cli's result: the report is written only when every
		// experiment succeeded, and removed when anything failed or
		// panicked (the panic then goes on up).
		defer func() {
			p := recover()
			if p == nil && err == nil {
				err = bench.WriteJSON(f, e.rep)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if p != nil || err != nil {
				os.Remove(*jsonPath) // best effort: err is what gets reported
			}
			if p != nil {
				panic(p)
			}
		}()
	}
	for _, x := range xs {
		if err := x.run(e); err != nil {
			return err
		}
	}
	return nil
}

type report = bench.JSONReport

// env is what one hybridbench invocation hands every experiment.
type env struct {
	cfg bench.Config
	rep *report // nil without -json
}

// experiment is one -exp name. The ordered experiments table drives
// -exp <name>, -exp all (in table order), the flag help and the
// unknown-experiment error.
type experiment struct {
	name string
	run  func(env) error
}

// define wires one experiment: run it, print its title (when it has one)
// and table, and record it in the -json report via add.
func define[R any](name, title string, run func(env) (R, error), print func(io.Writer, R),
	add func(*report, R)) experiment {
	return experiment{name, func(e env) error {
		res, err := run(e)
		if err != nil {
			return err
		}
		if title != "" {
			fmt.Println(title)
		}
		print(os.Stdout, res)
		fmt.Println()
		if e.rep != nil {
			add(e.rep, res)
		}
		return nil
	}}
}

// plain adapts an experiment that needs nothing but the configuration.
func plain[R any](f func(bench.Config) (R, error)) func(env) (R, error) {
	return func(e env) (R, error) { return f(e.cfg) }
}

// figure is one Figure-2/3 sweep, reported under its experiment id.
// fixedRatio pins the paper's β/α instead of calibrating: Figure 3 is
// about the strategy decision, and the paper's fixed β/α = 10 reproduces
// its shape regardless of this machine's constants.
func figure(id, title string, sweep func(bench.Config) (*bench.Fig2Result, error), fixedRatio bool,
	print func(io.Writer, *bench.Fig2Result)) experiment {
	return define(id, title,
		func(e env) (bench.JSONFigure, error) {
			if fixedRatio {
				e.cfg.Calibrate = false
			}
			res, err := sweep(e.cfg)
			return bench.JSONFigure{ID: id, Calibrated: e.cfg.Calibrate, Fig2Result: res}, err
		},
		func(w io.Writer, f bench.JSONFigure) { print(w, f.Fig2Result) },
		func(r *report, f bench.JSONFigure) { r.Figures = append(r.Figures, f) })
}

var experiments = []experiment{
	define("table1", "", plain(bench.Table1Experiment), bench.PrintTable1,
		func(r *report, v []bench.Table1Row) { r.Table1 = v }),
	figure("fig2a", "Figure 2a — MNIST-like, Hamming distance", bench.MNISTExperiment, false, bench.PrintFig2),
	figure("fig2b", "Figure 2b — Webspam-like, cosine distance", bench.WebspamExperiment, false, bench.PrintFig2),
	figure("fig2c", "Figure 2c — CoverType-like, L1 distance", bench.CoverTypeExperiment, false, bench.PrintFig2),
	figure("fig2d", "Figure 2d — Corel-like, L2 distance", bench.CorelExperiment, false, bench.PrintFig2),
	figure("fig3", "Figure 3 — Webspam-like output sizes and linear-search calls (β/α = 10, the paper's choice)",
		bench.WebspamExperiment, true, bench.PrintFig3),
	define("multiprobe", "Multi-probe — T probes vs L tables at fixed recall",
		plain(bench.MultiProbeExperiment), bench.PrintMultiProbe, func(r *report, v *bench.MultiProbeResult) { r.MultiProbe = v }),
	define("covering", "Covering LSH — guaranteed recall vs classic Hamming",
		plain(bench.CoveringExperiment), bench.PrintCovering, func(r *report, v *bench.CoveringResult) { r.Covering = v }),
	define("serve", "Serving — observability overhead, bare vs instrumented query path",
		plain(bench.ServeExperiment), bench.PrintServe, func(r *report, v *bench.ServeResult) { r.Serve = v }),
	define("recal", "Recalibration — decision agreement with a fresh model, stale vs refitted",
		plain(bench.RecalExperiment), bench.PrintRecal, func(r *report, v *bench.RecalResult) { r.Recal = v }),
	define("quant", "Point store — candidate verification: baseline vs flat vs SQ8",
		plain(bench.QuantExperiment), bench.PrintQuant, func(r *report, v *bench.QuantResult) { r.Quant = v }),
}

func names() []string {
	out := make([]string, len(experiments))
	for i, x := range experiments {
		out[i] = x.name
	}
	return out
}

// pick returns the experiments -exp names (one, or all in table order).
func pick(exp string) ([]experiment, error) {
	if exp == "all" {
		return experiments, nil
	}
	for _, x := range experiments {
		if x.name == exp {
			return []experiment{x}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s or all)", exp, strings.Join(names(), ", "))
}
