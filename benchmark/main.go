// Command benchmark is the repository's load benchmark: it drives
// closed-loop HTTP traffic client -> hybridrouter -> hybridserve -> shard
// -> core against the real binaries, checks every answer against
// brute-force ground truth and prints every metric by name with its
// unit. See README.md in this directory.
//
//	bash benchmark/run.sh -workload all -seed 1            # end-to-end metrics
//	bash benchmark/run.sh -workload corel-report -trace 1  # per-layer metrics
//	bash benchmark/run.sh -aa                              # two runs, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		root    = flag.String("root", "", "repository root (default: the directory above the working directory that holds module repro's go.mod)")
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "seed of the request order and the mutation stream")
		seconds = flag.Float64("seconds", runSeconds, "measured seconds per run, cut into 5 windows after a warm-up of a tenth; numbers taken at another length do not compare with baseline.json")
		trace   = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; both: one run of each")
		aa      = flag.Bool("aa", false, "run every workload twice in both modes and fail if the two runs disagree beyond the bounds")
		jsonOut = flag.String("json", "", "also write the full results to this file")
		budget  = flag.String("budget", "", "write the where-a-query's-time-goes tables of the traced runs to this file (BUDGET.md)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q, want 0, 1 or both\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	var ws []*workload
	switch {
	case *aa || *name == "all":
		ws = workloads
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}

	env, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children are stopped by each run's deferred cluster.stop and temp
	// dirs by cleanup; a signal cancels ctx, which fails the run in
	// flight and so reaches both.
	defer env.cleanup()
	// SIGPIPE too: a reader that closes standard output early must not
	// kill the benchmark before it has stopped its children.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()
	if err := env.buildBinaries(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	if *aa {
		modes = []bool{false, true}
	}
	// Under -aa the two runs of a workload and mode are adjacent, so that
	// the machine's slow drift falls between workloads, not between the
	// two sides of a comparison.
	repeats := 1
	if *aa {
		repeats = 2
	}
	var results, second []*runResult
	for _, w := range ws {
		for _, traced := range modes {
			for rep := 0; rep < repeats; rep++ {
				res, err := w.run(ctx, env, w, runOpts{seed: *seed, seconds: *seconds, traced: traced})
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				printResult(res)
				if rep == 0 {
					results = append(results, res)
				} else {
					second = append(second, res)
				}
			}
		}
	}
	code := 0
	if *aa && !compareAA(os.Stdout, results, second) {
		code = 1
	}
	for _, r := range results {
		if !r.Correct {
			code = 1
		}
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, env, *seed, *seconds, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *budget != "" {
		if err := writeBudget(*budget, *seed, *seconds, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printResultLine(results)
	return code
}

func printResult(r *runResult) {
	kind, defs := "end-to-end, tracing off", untracedDefs()
	if r.Traced {
		kind, defs = "per-layer, traced", tracedDefs()
	}
	fmt.Printf("== %s  seed %d  (%s)\n", r.Workload, r.Seed, kind)
	printMetrics(os.Stdout, r.Metrics, r.Samples, defs)
	fmt.Printf("  %-36s %s\n", "answers_digest", r.Digest)
	fmt.Printf("  %-36s correct=%v attempted=%d failed=%d\n\n", "requests", r.Correct, r.Attempted, r.Failed)
}

// printResultLine ends standard output with the one JSON object the
// driver reads. A run of several workloads, which the driver never
// makes, folds them: counts summed, metrics keyed workload/metric.
func printResultLine(results []*runResult) {
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		defs := endToEnd
		if r.Traced {
			defs = tracedDefs()
		}
		for name, v := range contractMetrics(r.Metrics, defs) {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = v
		}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

// report is the -json file: the first point of the trajectory when
// committed as baseline.json.
type report struct {
	Format  string       `json:"format"`
	Claim   *string      `json:"claim"` // no metric is claimed to improve
	Seed    uint64       `json:"seed"`
	Seconds float64      `json:"seconds"`
	Host    hostInfo     `json:"host"`
	Results []*runResult `json:"results"`
}

type hostInfo struct {
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
	Kernel string `json:"kernel"`
	// Commit is HEAD of the tree the benchmark ran in, when that tree is
	// a git checkout; a benchmark that adds itself runs on its parent.
	Commit string `json:"commit"`
}

func writeReport(path string, env *env, seed uint64, seconds float64, results []*runResult) error {
	host := hostInfo{Go: runtime.Version(), NProc: runtime.NumCPU()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		host.Kernel = strings.TrimSpace(string(b))
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = env.root
	if b, err := git.Output(); err == nil {
		host.Commit = strings.TrimSpace(string(b))
	}
	b, err := json.MarshalIndent(report{Format: "hybridlsh-loadbench/v1", Seed: seed, Seconds: seconds, Host: host, Results: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
