package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrapeMetrics GETs /metrics and parses the exposition, failing the
// test if the body is not valid Prometheus text format.
func scrapeMetrics(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	return exp
}

// TestMetricsMatchStats is the observability acceptance check: after a
// fixed request mix, the /metrics strategy counters must agree exactly
// with the per-query stats /stats reports for the same requests, and
// the exposition must stay monotonic across scrapes.
func TestMetricsMatchStats(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)

	first := scrapeMetrics(t, ts.URL)
	if v, ok := first.Value("hybridlsh_queries_total", nil); !ok || v != 0 {
		t.Fatalf("fresh queries_total = %v, %v; want 0", v, ok)
	}

	const single, batched = 7, 4
	for qi := 0; qi < single; qi++ {
		post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[qi*31])}, http.StatusOK, nil)
	}
	qs := make([][]float64, batched)
	for i := range qs {
		qs[i] = toFloats(points[i*17])
	}
	post(t, ts.URL+"/batch", map[string]any{"points": qs}, http.StatusOK, nil)

	var st struct {
		Queries  int64 `json:"queries"`
		Strategy struct {
			LSH    int64 `json:"lsh_shard_answers"`
			Linear int64 `json:"linear_shard_answers"`
		} `json:"strategy"`
		Drift struct {
			EstimateError struct {
				Count int64   `json:"count"`
				P50   float64 `json:"p50"`
			} `json:"estimate_error"`
			LSHNsPerCost struct {
				Count int64 `json:"count"`
			} `json:"lsh_ns_per_cost"`
			TimeRatio float64 `json:"time_ratio"`
		} `json:"drift"`
	}
	get(t, ts.URL+"/stats", &st)
	const want = single + batched
	if st.Queries != want {
		t.Fatalf("stats queries = %d, want %d", st.Queries, want)
	}
	if st.Strategy.LSH+st.Strategy.Linear != int64(want*cfg.Shards) {
		t.Fatalf("stats shard answers = %d+%d, want %d", st.Strategy.LSH, st.Strategy.Linear, want*cfg.Shards)
	}

	exp := scrapeMetrics(t, ts.URL)
	if v, _ := exp.Value("hybridlsh_queries_total", nil); v != want {
		t.Fatalf("queries_total = %v, want %d", v, want)
	}
	// The acceptance equality: metrics counters == /stats counters for
	// the same request mix, per strategy.
	if v, _ := exp.Value("hybridlsh_shard_answers_total", map[string]string{"strategy": "lsh"}); v != float64(st.Strategy.LSH) {
		t.Fatalf("shard_answers_total{lsh} = %v, stats says %d", v, st.Strategy.LSH)
	}
	if v, _ := exp.Value("hybridlsh_shard_answers_total", map[string]string{"strategy": "linear"}); v != float64(st.Strategy.Linear) {
		t.Fatalf("shard_answers_total{linear} = %v, stats says %d", v, st.Strategy.Linear)
	}
	if v, _ := exp.Value("hybridlsh_query_wall_seconds_count", nil); v != want {
		t.Fatalf("wall histogram count = %v, want %d", v, want)
	}
	if v, _ := exp.Value("hybridlsh_latency_observations_total", nil); v != want {
		t.Fatalf("latency observations = %v, want %d", v, want)
	}

	// Per-shard topology gauges: one series per shard, sizes summing to n.
	total := 0.0
	for j := 0; j < cfg.Shards; j++ {
		v, ok := exp.Value("hybridlsh_shard_points", map[string]string{"shard": string(rune('0' + j))})
		if !ok {
			t.Fatalf("no hybridlsh_shard_points{shard=%d} series", j)
		}
		total += v
		if q, _ := exp.Value("hybridlsh_shard_queries", map[string]string{"shard": string(rune('0' + j))}); q != want {
			t.Fatalf("shard_queries{%d} = %v, want %d", j, q, want)
		}
	}
	if total != float64(cfg.N) {
		t.Fatalf("shard points sum to %v, want %d", total, cfg.N)
	}
	if v, ok := exp.Value("hybridlsh_info", map[string]string{"metric": "l2", "mode": "classic"}); !ok || v != 1 {
		t.Fatalf("hybridlsh_info = %v, %v", v, ok)
	}

	// Drift: the estimate-error histogram and /stats drift block draw
	// from the same per-shard answers.
	if v, _ := exp.Value("hybridlsh_estimate_error_ratio_count", nil); v != float64(st.Drift.EstimateError.Count) {
		t.Fatalf("estimate_error_ratio count = %v, stats window says %d", v, st.Drift.EstimateError.Count)
	}
	if st.Drift.EstimateError.Count > 0 && st.Drift.EstimateError.P50 <= 0 {
		t.Fatalf("estimate-error p50 = %v with %d observations", st.Drift.EstimateError.P50, st.Drift.EstimateError.Count)
	}

	// Counters must be monotonic from the fresh scrape through traffic.
	if err := obs.CheckMonotonic(first, exp); err != nil {
		t.Fatalf("counters not monotonic across scrapes: %v", err)
	}
}

// assertTrace validates one decision trace against the result it rode
// along with.
func assertTrace(t *testing.T, res *QueryResult, shards int) {
	t.Helper()
	tr := res.Trace
	if tr == nil {
		t.Fatal(`"trace": true returned no trace`)
	}
	if len(tr.Shards) != shards {
		t.Fatalf("trace has %d shard records, want %d", len(tr.Shards), shards)
	}
	if tr.LSHShards != res.LSHShards || tr.LinearShards != res.LinearShards {
		t.Fatalf("trace strategy mix %d/%d != result %d/%d", tr.LSHShards, tr.LinearShards, res.LSHShards, res.LinearShards)
	}
	if tr.Collisions != res.Collisions || tr.Candidates != res.Candidates {
		t.Fatalf("trace aggregates diverge from result: %+v vs %+v", tr, res)
	}
	if tr.Alpha <= 0 || tr.Beta <= 0 {
		t.Fatalf("trace cost model α=%v β=%v, want calibrated positives", tr.Alpha, tr.Beta)
	}
	if tr.WallUS <= 0 || tr.MaxShardUS <= 0 {
		t.Fatalf("trace times %v/%v, want > 0", tr.WallUS, tr.MaxShardUS)
	}
	for j, sh := range tr.Shards {
		if sh.Shard != j {
			t.Fatalf("shard record %d claims shard %d", j, sh.Shard)
		}
		if sh.Strategy != "lsh" && sh.Strategy != "linear" {
			t.Fatalf("shard %d strategy %q", j, sh.Strategy)
		}
		if sh.LinearCost <= 0 {
			t.Fatalf("shard %d linear cost %v, want > 0 on a populated shard", j, sh.LinearCost)
		}
	}
	switch {
	case tr.LinearShards == 0 && tr.Strategy != "lsh",
		tr.LSHShards == 0 && tr.Strategy != "linear",
		tr.LSHShards > 0 && tr.LinearShards > 0 && tr.Strategy != "mixed":
		t.Fatalf("trace strategy %q with mix %d/%d", tr.Strategy, tr.LSHShards, tr.LinearShards)
	}
}

// TestTraceOnAllBackends asserts the "trace": true acceptance criterion
// on classic, multi-probe and covering servers, over /query and /batch.
func TestTraceOnAllBackends(t *testing.T) {
	classic := testConfig()

	probe := testConfig()
	probe.Probes = 4

	cover := testConfig()
	cover.Metric = "hamming"
	cover.Dim = 64
	cover.N = 800
	cover.CoverRadius = 2

	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"classic", classic}, {"multiprobe", probe}, {"covering", cover}} {
		t.Run(tc.name, func(t *testing.T) {
			ts := startServer(t, tc.cfg)
			var point any
			if tc.cfg.Metric == "hamming" {
				point = toBits(seedBinary(1, tc.cfg.Dim, tc.cfg.Seed)[0])
			} else {
				point = toFloats(seedDense(1, tc.cfg.Dim, tc.cfg.Seed)[0])
			}

			// Without the field no trace is emitted.
			var bare QueryResult
			post(t, ts.URL+"/query", map[string]any{"point": point}, http.StatusOK, &bare)
			if bare.Trace != nil {
				t.Fatal("trace emitted without being requested")
			}

			var res QueryResult
			post(t, ts.URL+"/query", map[string]any{"point": point, "trace": true}, http.StatusOK, &res)
			assertTrace(t, &res, tc.cfg.Shards)
			switch {
			case tc.cfg.Probes > 0:
				if res.Trace.Probes == nil || *res.Trace.Probes != tc.cfg.Probes {
					t.Fatalf("multi-probe trace probes = %v, want %d", res.Trace.Probes, tc.cfg.Probes)
				}
			case tc.cfg.CoverRadius > 0:
				if res.Trace.Radius == nil || *res.Trace.Radius != tc.cfg.CoverRadius {
					t.Fatalf("covering trace radius = %v, want %d", res.Trace.Radius, tc.cfg.CoverRadius)
				}
			default:
				if res.Trace.Probes != nil || res.Trace.Radius != nil {
					t.Fatalf("classic trace carries mode fields: %+v", res.Trace)
				}
			}

			var batch struct {
				Results []QueryResult `json:"results"`
			}
			post(t, ts.URL+"/batch", map[string]any{"points": []any{point, point}, "trace": true},
				http.StatusOK, &batch)
			if len(batch.Results) != 2 {
				t.Fatalf("batch returned %d results", len(batch.Results))
			}
			for i := range batch.Results {
				assertTrace(t, &batch.Results[i], tc.cfg.Shards)
			}
		})
	}
}

// TestStatsRadiusFields asserts the covering-radius fix: /stats reports
// the effective reporting radius and the covering radius as distinct,
// correctly-typed fields instead of overwriting one with the other.
func TestStatsRadiusFields(t *testing.T) {
	type radiusStats struct {
		Radius      float64 `json:"radius"`
		CoverRadius int     `json:"cover_radius"`
		Covering    struct {
			Enabled bool `json:"enabled"`
			Radius  int  `json:"radius"`
		} `json:"covering"`
	}

	classic := testConfig()
	ts := startServer(t, classic)
	var st radiusStats
	get(t, ts.URL+"/stats", &st)
	if st.Radius != classic.Radius || st.CoverRadius != 0 || st.Covering.Enabled {
		t.Fatalf("classic radius stats = %+v, want radius %v and no covering", st, classic.Radius)
	}

	cover := testConfig()
	cover.Metric = "hamming"
	cover.Dim = 64
	cover.N = 800
	cover.CoverRadius = 2
	cover.Radius = 0.4 // the -r flag plays no role in covering mode
	ts2 := startServer(t, cover)
	var st2 radiusStats
	get(t, ts2.URL+"/stats", &st2)
	if st2.CoverRadius != cover.CoverRadius || !st2.Covering.Enabled || st2.Covering.Radius != cover.CoverRadius {
		t.Fatalf("covering radius stats = %+v, want cover_radius %d", st2, cover.CoverRadius)
	}
	if st2.Radius != float64(cover.CoverRadius) {
		t.Fatalf("covering effective radius = %v, want %v", st2.Radius, float64(cover.CoverRadius))
	}
}

// TestMetricsOnModeBackends scrapes multi-probe and covering servers:
// the exposition must lint and count their traffic too.
func TestMetricsOnModeBackends(t *testing.T) {
	probe := testConfig()
	probe.Probes = 4
	ts := startServer(t, probe)
	post(t, ts.URL+"/query", map[string]any{"point": toFloats(seedDense(1, probe.Dim, probe.Seed)[0])}, http.StatusOK, nil)
	exp := scrapeMetrics(t, ts.URL)
	if v, _ := exp.Value("hybridlsh_queries_total", nil); v != 1 {
		t.Fatalf("multi-probe queries_total = %v, want 1", v)
	}
	if v, ok := exp.Value("hybridlsh_info", map[string]string{"metric": "l2", "mode": "multiprobe"}); !ok || v != 1 {
		t.Fatalf("multi-probe hybridlsh_info = %v, %v", v, ok)
	}

	cover := testConfig()
	cover.Metric = "hamming"
	cover.Dim = 64
	cover.N = 800
	cover.CoverRadius = 2
	ts2 := startServer(t, cover)
	post(t, ts2.URL+"/query", map[string]any{"point": toBits(seedBinary(1, cover.Dim, cover.Seed)[0])}, http.StatusOK, nil)
	exp2 := scrapeMetrics(t, ts2.URL)
	if v, _ := exp2.Value("hybridlsh_queries_total", nil); v != 1 {
		t.Fatalf("covering queries_total = %v, want 1", v)
	}
	if v, ok := exp2.Value("hybridlsh_info", map[string]string{"metric": "hamming", "mode": "covering"}); !ok || v != 1 {
		t.Fatalf("covering hybridlsh_info = %v, %v", v, ok)
	}
}

// TestTraceSampleLog drives a server with -trace-sample=2 and asserts
// every second answered query logs one JSON trace line.
func TestTraceSampleLog(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)
	for qi := 0; qi < 6; qi++ {
		post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[qi])}, http.StatusOK, nil)
	}

	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		idx := strings.Index(line, "hybridserve: trace ")
		if idx < 0 {
			continue
		}
		lines++
		var tr obs.QueryTrace
		payload := line[idx+len("hybridserve: trace "):]
		if err := json.Unmarshal([]byte(payload), &tr); err != nil {
			t.Fatalf("trace log line is not JSON: %v\n%s", err, payload)
		}
		if len(tr.Shards) != cfg.Shards {
			t.Fatalf("logged trace has %d shards, want %d", len(tr.Shards), cfg.Shards)
		}
	}
	if lines != 3 {
		t.Fatalf("6 queries at -trace-sample=2 logged %d traces, want 3", lines)
	}
}

// TestFinalMetricsFlush asserts the shutdown hook logs one structured
// snapshot line covering the counters' final state.
func TestFinalMetricsFlush(t *testing.T) {
	cfg := testConfig()
	ts := startServerKeep(t, cfg)
	post(t, ts.srv.URL+"/query", map[string]any{"point": toFloats(seedDense(1, cfg.Dim, cfg.Seed)[0])}, http.StatusOK, nil)

	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	ts.s.logFinalMetrics()

	line := buf.String()
	idx := strings.Index(line, "final metrics ")
	if idx < 0 {
		t.Fatalf("no final metrics line in %q", line)
	}
	var snap struct {
		Queries     int64   `json:"queries"`
		LSH         int64   `json:"lsh_shard_answers"`
		Linear      int64   `json:"linear_shard_answers"`
		Live        int     `json:"live"`
		UptimeSec   float64 `json:"uptime_sec"`
		Compactions int64   `json:"compactions_total"`
	}
	payload := strings.TrimSpace(line[idx+len("final metrics "):])
	if err := json.Unmarshal([]byte(payload), &snap); err != nil {
		t.Fatalf("final metrics line is not JSON: %v\n%s", err, payload)
	}
	if snap.Queries != 1 || snap.LSH+snap.Linear != int64(cfg.Shards) || snap.Live != cfg.N {
		t.Fatalf("final metrics snapshot = %+v", snap)
	}
}

// startServerKeep is startServer but also returns the server value, for
// tests that poke at internals next to the HTTP surface.
type keptServer struct {
	s   *Server
	srv *httptest.Server
}

func startServerKeep(t *testing.T, cfg Config) keptServer {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return keptServer{s: s, srv: srv}
}
