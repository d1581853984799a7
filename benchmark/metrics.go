package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/stats"
)

// metricDef names one reported number. The tables below are the single
// source of truth: BENCHMARK.json is checked against them by a test, the
// -aa mode takes its bounds from them, and the printers walk them in
// order.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; empty on a per-layer metric means lower
	// Bound is the share of the reference value by which the metric may
	// worsen before it counts as a regression, and the A/A agreement
	// bound. Zero on per-layer metrics, which are never gated.
	Bound float64
	// Exact marks a count that must repeat bit for bit between two runs
	// of the same seed (the -aa mode fails on any difference).
	Exact bool
	// Pct is the percentile a latency metric reports (0.99 for a p99).
	// It stands only on a sample with ten values beyond it; on a smaller
	// one the value is printed with a warning and -aa does not judge it.
	Pct float64
}

// endToEnd are the metrics BENCHMARK.json gates: defined and non-zero on
// every workload. A timing takes the widest bound the contract allows:
// on the 2-vCPU box this was written on, memory-bound work — an
// in-process query loop with no HTTP at all — wanders between 335 and
// 810 queries/s inside two minutes, so ten runs of a timing spread
// (Q3 - Q1) / median by 3 to 9 % in a calm hour and 20 to 24 % in a
// rough one, more on corel-readwrite, whatever the run length (README.md,
// "Why the timing bounds are 25 %"). What the machine cannot move is
// bounded tightly: recall and snapshot size are the same on every run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Pct: 0.50},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recall", Unit: "share", Better: "higher", Bound: 0.002, Exact: true},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "snapshot_bytes_per_point", Unit: "B/point", Better: "lower", Bound: 0.01, Exact: true},
}

// endToEndExtra are end-to-end metrics the contract's end_to_end list
// cannot hold, so BENCHMARK.json lists them under per_layer: error_share
// is 0 at baseline, the append latencies exist on corel-readwrite only,
// and query_p99_ms does not stay inside the contract's widest bound on
// this box — when the machine slows by a third the tail of two
// connections on two vCPUs grows by two thirds, and the driver's two
// sets of ten runs spread 22 to 37 % on mnist-collide and
// corel-readwrite (README.md). They are measured in the untraced run
// like the rest (and again, in the traced run's untraced phase, for the
// -trace output), and -aa gates them.
var endToEndExtra = []metricDef{
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Pct: 0.99},
	{Name: "error_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Pct: 0.50},
	{Name: "append_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Pct: 0.99},
}

// perLayer are the traced run's numbers, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "hybridrouter.self_us", Unit: "us"},
	{Name: "hybridrouter.hedged_share", Unit: "share"},
	{Name: "hybridrouter.failover_share", Unit: "share"},
	{Name: "hybridserve.transport_self_us", Unit: "us"},
	{Name: "hybridserve.request_bytes", Unit: "B", Exact: true},
	{Name: "hybridserve.response_bytes", Unit: "B"},
	{Name: "shard.wall_us", Unit: "us"},
	{Name: "shard.fanout_self_us", Unit: "us"},
	{Name: "shard.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "shard.compactions", Unit: "count"},
	{Name: "shard.compact_ms_total", Unit: "ms"},
	{Name: "shard.dead_share_max", Unit: "share"},
	{Name: "core.query_us", Unit: "us"},
	{Name: "core.decide_us", Unit: "us"},
	{Name: "core.search_self_us", Unit: "us"},
	{Name: "core.linear_share", Unit: "share", Exact: true},
	{Name: "core.estimated_share", Unit: "share", Exact: true},
	{Name: "core.collisions_per_query", Unit: "count", Exact: true},
	{Name: "core.candidates_per_query", Unit: "count", Exact: true},
	{Name: "core.results_per_query", Unit: "count", Exact: true},
	{Name: "core.useful_ratio", Unit: "share", Better: "higher", Exact: true},
	{Name: "core.hybrid_over_best", Unit: "ratio"},
	{Name: "lsh.hash_us", Unit: "us"},
	{Name: "lsh.lookup_us", Unit: "us"},
	{Name: "lsh.buckets_hit_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "hll.merge_us", Unit: "us"},
	{Name: "hll.rel_error", Unit: "share", Exact: true},
	{Name: "pointstore.verify_us", Unit: "us"},
	{Name: "pointstore.verify_ns_per_cand", Unit: "ns"},
	{Name: "pointstore.scan_us", Unit: "us"},
	{Name: "pointstore.scan_ns_per_point", Unit: "ns"},
	{Name: "pointstore.quant_rechecked_share", Unit: "share"},
	{Name: "persist.snapshot_write_s", Unit: "s"},
	{Name: "persist.snapshot_load_s", Unit: "s"},
	{Name: "replica.wal_bytes_per_point", Unit: "B/point"},
	{Name: "replica.lag_frames_max", Unit: "count"},
	{Name: "replica.visible_lag_p50_ms", Unit: "ms", Pct: 0.50},
	{Name: "replica.rehydrates", Unit: "count"},
	{Name: "loadgen.cpu_share", Unit: "share"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Pct: 0.99},
	{Name: "trace.overhead_share", Unit: "share"},
}

// tracedDefs is what a -trace 1 run reports: the per-layer set plus the
// end-to-end extras, in BENCHMARK.json's per_layer order.
func tracedDefs() []metricDef {
	return append(append([]metricDef(nil), perLayer...), endToEndExtra...)
}

// untracedDefs is what a -trace 0 run measures.
func untracedDefs() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), endToEndExtra...)
}

// metricValue is one metric in the result line the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload
// run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractMetrics picks defs out of m for the result line. A metric that
// does not apply to the workload (append latency on a read-only one) is
// reported as 0 rather than left out: the driver wants every name on
// every workload.
func contractMetrics(m map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// printMetrics writes the metrics of defs that m holds, one per line,
// with unit, bound and the sample count behind a timing where known.
func printMetrics(w io.Writer, m map[string]float64, samples map[string]int, defs []metricDef) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-8s", d.Name, v, d.Unit)
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound %4.1f%%", 100*d.Bound)
		}
		if n, ok := samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
			if !d.stands(n) {
				line += " (fewer than 10 samples beyond it)"
			}
		}
		fmt.Fprintln(w, line)
	}
}

// ---- window and percentile maths ----

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supported reports whether n samples carry the p-th percentile: at
// least minBeyond of them must lie beyond it.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond
}

// stands reports whether a value of d taken from n samples is one to
// compare: always, unless d is a percentile n samples do not carry.
func (d metricDef) stands(n int) bool {
	return d.Pct == 0 || supported(n, d.Pct)
}

// percentile is the nearest-rank p-th percentile of an ascending-sorted
// sample (p in (0,1]); 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is stats.Quantile(xs, 0.5), and 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// windowPercentile is the median over the windows of each window's
// p-th percentile, and how many samples the windows hold together: the
// estimator of query_p50_ms and query_p99_ms on every workload. The
// machine slows for seconds at a time; a spell that falls into one or two
// of the five windows moves a percentile of the pooled samples — the p99
// of ten corel-report runs spread 41 % pooled — and leaves the median of
// the windows alone. A 3 s window of dense128-batch holds some 330
// requests, 3 of them beyond its p99, so what must carry a p99 is the
// five windows together: 1 000 samples in all (metricDef.stands).
func windowPercentile(windows [][]float64, p float64) (float64, int) {
	per := make([]float64, len(windows))
	total := 0
	for i, w := range windows {
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		per[i] = percentile(s, p)
		total += len(w)
	}
	return median(per), total
}
