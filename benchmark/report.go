package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareAA prints, per workload and metric, the two runs of the same
// code and seed side by side and reports whether they agree: an exact
// metric bit for bit, the digests equal, and a bounded metric of an
// untraced run within its bound. The timings of a traced run are shown
// and not judged: end-to-end numbers are never taken with tracing on.
// Nor is a percentile with fewer than ten samples beyond it (the p99 of
// a run's 400 appends): its bound column reads n<10.
func compareAA(w io.Writer, first, second []*runResult) bool {
	ok := true
	fmt.Fprintf(w, "== A/A: two runs of the same code and seed\n")
	fmt.Fprintf(w, "  %-16s %-34s %14s %14s %9s %8s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range first {
		b := second[i]
		defs := untracedDefs()
		if a.Traced {
			defs = tracedDefs()
		}
		for _, d := range defs {
			va, has := a.Metrics[d.Name]
			if !has {
				continue
			}
			vb := b.Metrics[d.Name]
			diff := 0.0
			if va != vb {
				diff = math.Abs(vb-va) / math.Abs(va) // +Inf when run 1 read 0
			}
			bound, verdict := "", ""
			switch {
			case d.Exact:
				bound = "exact"
				if va != vb {
					verdict = "  DIFFERS"
				}
			case d.Bound > 0 && !a.Traced && !(d.stands(a.Samples[d.Name]) && d.stands(b.Samples[d.Name])):
				bound = "n<10"
			case d.Bound > 0 && !a.Traced:
				bound = fmt.Sprintf("%.1f%%", 100*d.Bound)
				if diff > d.Bound {
					verdict = "  BEYOND BOUND"
				}
			}
			if verdict != "" {
				ok = false
			}
			fmt.Fprintf(w, "  %-16s %-34s %14.6g %14.6g %8.2f%% %8s%s\n", a.Workload, d.Name, va, vb, 100*diff, bound, verdict)
		}
		if a.Digest != b.Digest {
			ok = false
			fmt.Fprintf(w, "  %-16s %-34s %s != %s  DIFFERS\n", a.Workload, "answers_digest", a.Digest[:12], b.Digest[:12])
		}
	}
	if ok {
		fmt.Fprintln(w, "  A/A: the runs agree")
	} else {
		fmt.Fprintln(w, "  A/A: the runs DISAGREE")
	}
	fmt.Fprintln(w)
	return ok
}

// writeBudget renders BUDGET.md from the traced results: per workload,
// where a request's time goes between the client and the shards (medians
// per HTTP request, measured under the workload's own two-connection
// load) and where a shard's share of a query goes inside the library
// (means per core.Index.Query call), each stage sum set against the
// measured whole.
func writeBudget(path string, seed uint64, seconds float64, results []*runResult) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Where a query's time goes\n\n")
	fmt.Fprintf(&sb, "Generated by `bash benchmark/run.sh -workload all -trace 1 -seed %d -seconds %g -budget benchmark/BUDGET.md`;\n", seed, seconds)
	fmt.Fprintf(&sb, "do not edit. Spans are recorded from outside the program (see README.md, \"Tracing\").\n")
	for _, r := range results {
		if !r.Traced {
			continue
		}
		m, b := r.Metrics, r.Budget
		fmt.Fprintf(&sb, "\n## %s\n\n", r.Workload)

		via := b["via_router_p50_us"]
		fmt.Fprintf(&sb, "Per HTTP request (median, µs), %d connections:\n\n", clients)
		fmt.Fprintf(&sb, "| stage | µs | share |\n|---|---:|---:|\n")
		httpSum := 0.0
		for _, s := range []struct{ label, metric string }{
			{"router: read, forward, copy the answer back", "hybridrouter.self_us"},
			{"transport: HTTP, JSON decode and encode in hybridserve", "hybridserve.transport_self_us"},
			{"shard: `Sharded.Query` wall time, server-reported", "shard.wall_us"},
		} {
			fmt.Fprintf(&sb, "| %s (`%s`) | %.1f | %.1f %% |\n", s.label, s.metric, m[s.metric], 100*m[s.metric]/via)
			httpSum += m[s.metric]
		}
		fmt.Fprintf(&sb, "| **stage sum** | **%.1f** | %.1f %% |\n", httpSum, 100*httpSum/via)
		fmt.Fprintf(&sb, "| measured round trip through the router, p50 | %.1f | 100 %% |\n", via)
		fmt.Fprintf(&sb, "| same request straight to hybridserve, p50 | %.1f | %.1f %% |\n\n", b["direct_p50_us"], 100*b["direct_p50_us"]/via)

		lin, est := m["core.linear_share"], m["core.estimated_share"]
		whole := m["core.query_us"]
		hashLookupMerge := m["lsh.hash_us"] + m["lsh.lookup_us"] + est*m["hll.merge_us"]
		fmt.Fprintf(&sb, "Per shard call `core.Index.Query` (mean, µs); `core.linear_share` = %.3f, `core.estimated_share` = %.3f:\n\n", lin, est)
		fmt.Fprintf(&sb, "| stage | µs | share |\n|---|---:|---:|\n")
		libSum := 0.0
		for _, s := range []struct {
			label string
			us    float64
		}{
			{"hash: L keys (`lsh.hash_us`)", m["lsh.hash_us"]},
			{"lookup: L bucket map reads (`lsh.lookup_us`)", m["lsh.lookup_us"]},
			{"HLL merge on the estimated share (`hll.merge_us` x `core.estimated_share`)", est * m["hll.merge_us"]},
			{"dedup: bucket walk + visited array (`core.search_self_us`)", m["core.search_self_us"]},
			{"verify on the LSH share (`pointstore.verify_us` x (1 - `core.linear_share`))", (1 - lin) * m["pointstore.verify_us"]},
			{"scan on the linear share (`pointstore.scan_us` x `core.linear_share`)", lin * m["pointstore.scan_us"]},
		} {
			fmt.Fprintf(&sb, "| %s | %.1f | %.1f %% |\n", s.label, s.us, 100*s.us/whole)
			libSum += s.us
		}
		fmt.Fprintf(&sb, "| **stage sum** | **%.1f** | %.1f %% |\n", libSum, 100*libSum/whole)
		fmt.Fprintf(&sb, "| measured `core.query_us` | %.1f | 100 %% |\n", whole)
		fmt.Fprintf(&sb, "| of which decide, measured (`core.decide_us`; hash + lookup + merge share = %.1f) | %.1f | %.1f %% |\n\n",
			hashLookupMerge, m["core.decide_us"], 100*m["core.decide_us"]/whole)

		fmt.Fprintf(&sb, "Shard merge (`shard.fanout_self_us`, `Sharded.Query` minus its slowest shard): %.1f µs per query. ", m["shard.fanout_self_us"])
		fmt.Fprintf(&sb, "Hybrid over the better forced strategy (`core.hybrid_over_best`): %.3f. ", m["core.hybrid_over_best"])
		fmt.Fprintf(&sb, "Tracing cost (`trace.overhead_share`): %.1f %% of %.1f query points/s.\n", 100*m["trace.overhead_share"], b["untraced_qps"])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
