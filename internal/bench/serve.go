package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
)

// ServeResult reports what the serving-layer observability costs: the
// per-query latency of the node's answer path alone vs the same path
// plus the node's own per-request record function (latency recorder,
// /metrics counters and histograms, drift monitor, the piggybacked
// recalibration check), and the cost of rendering one /metrics
// exposition afterwards.
type ServeResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	Shards  int     `json:"shards"`
	Queries int     `json:"queries"`
	Runs    int     `json:"runs"`
	// BareP50US/BareP95US are wall-time percentiles (µs) over the
	// per-query minima across rounds of server.Query alone.
	BareP50US float64 `json:"bare_p50_us"`
	BareP95US float64 `json:"bare_p95_us"`
	// InstrP50US/InstrP95US are the same percentiles with server.Record
	// appended to every query.
	InstrP50US float64 `json:"instr_p50_us"`
	InstrP95US float64 `json:"instr_p95_us"`
	// OverheadP50Pct is the headline number: the relative p50 penalty
	// of instrumentation, 100·(instr−bare)/bare. Noise can push it
	// slightly negative; the acceptance bar is that it stays under 5.
	OverheadP50Pct float64 `json:"overhead_p50_pct"`
	OverheadP95Pct float64 `json:"overhead_p95_pct"`
	// ScrapeUS and ScrapeBytes characterise one /metrics render (all
	// server families + per-shard topology) after the instrumented
	// pass — the cost a monitoring poll imposes, off the query path.
	ScrapeUS    float64 `json:"scrape_us"`
	ScrapeBytes int     `json:"scrape_bytes"`
}

// ServeExperiment measures the observability overhead on the Corel-like
// L2 workload at the middle paper radius. It boots the node that ships
// (internal/server) over one sharded hybrid index, then times the query
// set two ways through it: bare (server.Query — parse, fan-out, result)
// and instrumented (the same followed by server.Record, the function
// POST /query and /batch call on every answer). The per-query
// instrumentation cost (a few µs) is far below scheduler jitter, hence
// pairedMinima; percentiles are taken over its per-query minima.
func ServeExperiment(cfg Config) (*ServeResult, error) {
	data, queries, r := corelWorkload(cfg)
	sh, err := corelSharded(cfg, data, r, core.CostModel{})
	if err != nil {
		return nil, fmt.Errorf("bench: building serve-experiment index: %w", err)
	}
	node, err := corelNode(server.DefaultConfig(), sh)
	if err != nil {
		return nil, fmt.Errorf("bench: booting the serve-experiment node: %w", err)
	}
	defer node.Shutdown()
	points := make([]json.RawMessage, len(queries))
	for i, q := range queries {
		if points[i], err = json.Marshal(q); err != nil {
			return nil, err
		}
	}

	runs := max(cfg.Runs, 1)

	answer := func(record bool) func(int) error {
		return func(i int) error {
			res, err := node.Query(points[i], nil, nil)
			if err != nil {
				return fmt.Errorf("bench: serve-experiment query %d: %w", i, err)
			}
			if record {
				node.Record(res)
			}
			return nil
		}
	}
	bare, instr, err := pairedMinima(len(points), runs, answer(false), answer(true))
	if err != nil {
		return nil, err
	}

	res := &ServeResult{
		Dataset: "corel-like", N: len(data), Metric: "l2", Radius: r,
		Shards: corelShards, Queries: len(queries), Runs: runs,
		BareP50US:  stats.Quantile(bare, 0.50),
		BareP95US:  stats.Quantile(bare, 0.95),
		InstrP50US: stats.Quantile(instr, 0.50),
		InstrP95US: stats.Quantile(instr, 0.95),
	}
	res.OverheadP50Pct = 100 * (res.InstrP50US - res.BareP50US) / res.BareP50US
	res.OverheadP95Pct = 100 * (res.InstrP95US - res.BareP95US) / res.BareP95US

	// One GET /metrics after the instrumented traffic: the poll cost a
	// monitoring system imposes, and proof the output lints.
	h, rec := node.Handler(), httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	res.ScrapeUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	res.ScrapeBytes = rec.Body.Len()
	if err := obs.Lint(rec.Body.Bytes()); err != nil {
		return nil, fmt.Errorf("bench: serve-experiment exposition does not lint: %w", err)
	}
	return res, nil
}

// pairedMinima times two arms of the same n operations under the noise
// discipline the latency experiments share: after one untimed warm-up
// round, both arms run every round, in alternating order (a first on even
// rounds, b first on odd) so slow drift cancels, and each operation keeps
// its per-arm minimum across rounds — interruptions only ever slow a
// sample down, so the minimum is the cleanest estimate of the true path
// cost. Times are in µs.
func pairedMinima(n, runs int, a, b func(i int) error) (bestA, bestB []float64, err error) {
	arms := [2]func(int) error{a, b}
	best := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		best[0][i], best[1][i] = math.Inf(1), math.Inf(1)
	}
	for run := -1; run < runs; run++ { // round -1 is the warm-up
		for k := 0; k < 2; k++ {
			arm := (k + max(run, 0)) % 2
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if err := arms[arm](i); err != nil {
					return nil, nil, err
				}
				if d := float64(time.Since(t0).Nanoseconds()) / 1e3; run >= 0 && d < best[arm][i] {
					best[arm][i] = d
				}
			}
		}
	}
	return best[0], best[1], nil
}

// PrintServe renders the overhead comparison like the other tables.
func PrintServe(w io.Writer, res *ServeResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s radius=%.3g shards=%d queries=%d runs=%d\n",
		res.Dataset, res.N, res.Metric, res.Radius, res.Shards, res.Queries, res.Runs)
	fmt.Fprintf(w, "  %-14s %12s %12s\n", "mode", "p50 µs/q", "p95 µs/q")
	fmt.Fprintf(w, "  %-14s %12.1f %12.1f\n", "bare", res.BareP50US, res.BareP95US)
	fmt.Fprintf(w, "  %-14s %12.1f %12.1f\n", "instrumented", res.InstrP50US, res.InstrP95US)
	fmt.Fprintf(w, "  overhead p50 %+.2f%%  p95 %+.2f%%  (scrape %.1fµs, %d bytes)\n",
		res.OverheadP50Pct, res.OverheadP95Pct, res.ScrapeUS, res.ScrapeBytes)
}
