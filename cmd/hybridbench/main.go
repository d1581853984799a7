// Command hybridbench regenerates every table and figure of the paper's
// evaluation (Section 4) on the synthetic dataset substitutes:
//
//	hybridbench -exp table1            # Table 1: HLL cost and error
//	hybridbench -exp fig2a             # Figure 2a: MNIST, Hamming
//	hybridbench -exp fig2b             # Figure 2b: Webspam, cosine
//	hybridbench -exp fig2c             # Figure 2c: CoverType, L1
//	hybridbench -exp fig2d             # Figure 2d: Corel, L2
//	hybridbench -exp fig3              # Figure 3: Webspam output sizes & LS%
//	hybridbench -exp persist           # build-once-load-many: snapshot load vs rebuild
//	hybridbench -exp delete            # tombstone skew vs online compaction
//	hybridbench -exp multiprobe        # multi-probe T vs L at fixed recall
//	hybridbench -exp covering          # covering LSH: guaranteed recall vs classic Hamming
//	hybridbench -exp serve             # serving-layer observability overhead (bare vs instrumented)
//	hybridbench -exp recal             # drift injection: online α/β refit vs a stale cost model
//	hybridbench -exp cache             # result cache: Zipf traffic, cached vs uncached p50
//	hybridbench -exp replica           # replicated serving: router overhead, hedge rate, convergence lag
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
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/pointstore"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: "+strings.Join(names(), ", ")+", all")
		quantMode  = flag.String("quant", "sq8", "point-store quantization mode the quant experiment gates on (off or sq8)")
		scale      = flag.Float64("scale", 0.05, "fraction of the paper's dataset sizes (1.0 = paper scale)")
		queries    = flag.Int("queries", 100, "query-set size (paper: 100)")
		runs       = flag.Int("runs", 5, "timing runs to average (paper: 5)")
		seed       = flag.Uint64("seed", 1, "generation/construction seed")
		paperRatio = flag.Bool("paperratio", false, "use the paper's fixed β/α ratios instead of calibrating")
		csvDir     = flag.String("csv", "", "also write results as CSV files into this directory")
		jsonPath   = flag.String("json", "", "also write all results as one machine-readable JSON file (e.g. BENCH_results.json)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig(*scale)
	cfg.Queries = *queries
	cfg.Runs = *runs
	cfg.Seed = *seed
	cfg.Calibrate = !*paperRatio

	qmode, err := pointstore.ParseMode(*quantMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridbench:", err)
		os.Exit(1)
	}
	var rep *bench.JSONReport
	var jsonOut *os.File
	if *jsonPath != "" {
		// The run meta (environment + quant mode) is stamped once here,
		// before any experiment runs, so every report this invocation
		// writes carries an identical meta block.
		rep = bench.NewJSONReport(cfg, qmode.String())
		// Open the output before the (potentially minutes-long) run so an
		// unwritable path fails fast instead of discarding the results.
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridbench:", err)
			os.Exit(1)
		}
		jsonOut = f
	}
	if err := run(*exp, cfg, *csvDir, rep, qmode); err != nil {
		fmt.Fprintln(os.Stderr, "hybridbench:", err)
		os.Exit(1)
	}
	if rep != nil {
		err := bench.WriteJSON(jsonOut, rep)
		if cerr := jsonOut.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hybridbench:", err)
			os.Exit(1)
		}
	}
}

type report = bench.JSONReport

// env is what one hybridbench invocation hands every experiment.
type env struct {
	cfg    bench.Config
	csvDir string
	rep    *report // nil without -json
	qmode  pointstore.Mode
}

// experiment is one -exp name. The ordered experiments table drives
// -exp <name>, -exp all (in table order), the flag help and the
// unknown-experiment error.
type experiment struct {
	name string
	run  func(env) error
}

// define wires one experiment: run it, print its title (when it has one)
// and table, record it in the -json report via add, and (when csv is
// non-nil) write <name>.csv into the -csv directory.
func define[R any](name, title string, run func(env) (R, error), print func(io.Writer, R),
	add func(*report, R), csv func(io.Writer, R) error) experiment {
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
		if csv == nil || e.csvDir == "" {
			return nil
		}
		return writeCSV(e.csvDir, name+".csv", func(w io.Writer) error { return csv(w, res) })
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
		func(r *report, f bench.JSONFigure) { r.Figures = append(r.Figures, f) },
		func(w io.Writer, f bench.JSONFigure) error { return bench.WriteFig2CSV(w, f.Fig2Result) })
}

var experiments = []experiment{
	define("table1", "", plain(bench.Table1Experiment), bench.PrintTable1,
		func(r *report, v []bench.Table1Row) { r.Table1 = v }, bench.WriteTable1CSV),
	figure("fig2a", "Figure 2a — MNIST-like, Hamming distance", bench.MNISTExperiment, false, bench.PrintFig2),
	figure("fig2b", "Figure 2b — Webspam-like, cosine distance", bench.WebspamExperiment, false, bench.PrintFig2),
	figure("fig2c", "Figure 2c — CoverType-like, L1 distance", bench.CoverTypeExperiment, false, bench.PrintFig2),
	figure("fig2d", "Figure 2d — Corel-like, L2 distance", bench.CorelExperiment, false, bench.PrintFig2),
	figure("fig3", "Figure 3 — Webspam-like output sizes and linear-search calls (β/α = 10, the paper's choice)",
		bench.WebspamExperiment, true, bench.PrintFig3),
	define("persist", "Persistence — snapshot load vs cold rebuild (build-once-load-many)",
		plain(bench.PersistExperiment), bench.PrintPersist, func(r *report, v *bench.PersistResult) { r.Persist = v }, nil),
	define("delete", "Deletes — tombstone-skewed cost model vs online shard compaction",
		plain(bench.DeleteExperiment), bench.PrintDelete, func(r *report, v *bench.DeleteResult) { r.Delete = v }, nil),
	define("multiprobe", "Multi-probe — T probes vs L tables at fixed recall",
		plain(bench.MultiProbeExperiment), bench.PrintMultiProbe, func(r *report, v *bench.MultiProbeResult) { r.MultiProbe = v }, nil),
	define("covering", "Covering LSH — guaranteed recall vs classic Hamming",
		plain(bench.CoveringExperiment), bench.PrintCovering, func(r *report, v *bench.CoveringResult) { r.Covering = v }, nil),
	define("serve", "Serving — observability overhead, bare vs instrumented query path",
		plain(bench.ServeExperiment), bench.PrintServe, func(r *report, v *bench.ServeResult) { r.Serve = v }, nil),
	define("recal", "Recalibration — decision agreement with a fresh model, stale vs refitted",
		plain(bench.RecalExperiment), bench.PrintRecal, func(r *report, v *bench.RecalResult) { r.Recal = v }, nil),
	define("cache", "Result cache — Zipf traffic, cached vs uncached query path",
		plain(bench.CacheExperiment), bench.PrintCache, func(r *report, v *bench.CacheResult) { r.Cache = v }, nil),
	define("quant", "Point store — candidate verification: baseline vs flat vs SQ8",
		func(e env) (*bench.QuantResult, error) { return bench.QuantExperiment(e.cfg, e.qmode) },
		bench.PrintQuant, func(r *report, v *bench.QuantResult) { r.Quant = v }, nil),
	define("replica", "Replication — router fan-out vs direct replica, convergence lag",
		plain(bench.ReplicaExperiment), bench.PrintReplica, func(r *report, v *bench.ReplicaResult) { r.Replica = v }, nil),
}

func names() []string {
	out := make([]string, len(experiments))
	for i, x := range experiments {
		out[i] = x.name
	}
	return out
}

// run executes one experiment (or all, in table order), printing
// human-readable tables and accumulating into rep when non-nil.
func run(exp string, cfg bench.Config, csvDir string, rep *bench.JSONReport, qmode pointstore.Mode) error {
	ran := false
	for _, x := range experiments {
		if exp == x.name || exp == "all" {
			if err := x.run(env{cfg, csvDir, rep, qmode}); err != nil {
				return err
			}
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s or all)", exp, strings.Join(names(), ", "))
	}
	return nil
}

// writeCSV creates dir/name and streams the writer callback into it.
func writeCSV(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
