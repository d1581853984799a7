package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/vector"
)

// ReplicaResult reports what replicated serving costs: the per-query
// latency of hitting one replica directly vs going through
// cmd/hybridrouter's fan-out, the hedge rate that latency bought, and
// how far behind the delta-log tail leaves replicas after a write
// burst. The two gates CI enforces are RequestErrors == 0 (the router
// answered everything) and Converged (replica answers are id-identical
// to the writer once the tail drains).
type ReplicaResult struct {
	Dataset  string `json:"dataset"`
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	Queries  int    `json:"queries"`
	Runs     int    `json:"runs"`
	// DirectP50US/DirectP95US time HTTP queries against one replica;
	// RouterP50US/RouterP95US time the same queries through the router.
	// Both ride the same loopback HTTP stack, so the difference is the
	// router hop itself (proxy decode, ordering, hedging bookkeeping).
	DirectP50US    float64 `json:"direct_p50_us"`
	DirectP95US    float64 `json:"direct_p95_us"`
	RouterP50US    float64 `json:"router_p50_us"`
	RouterP95US    float64 `json:"router_p95_us"`
	OverheadP50Pct float64 `json:"overhead_p50_pct"`
	// HedgeRate is hedges per routed request; RequestErrors counts
	// requests the router failed to answer (every replica exhausted).
	HedgeRate     float64 `json:"hedge_rate"`
	RequestErrors float64 `json:"request_errors"`
	// Convergence lag: after each appended batch, how long until every
	// replica's applied cursor reaches the writer's log head.
	ConvergeRounds int     `json:"converge_rounds"`
	ConvergeP50MS  float64 `json:"converge_p50_ms"`
	ConvergeMaxMS  float64 `json:"converge_max_ms"`
	FramesApplied  int64   `json:"frames_applied"`
	// Converged is the id-identity gate: after the last round drained,
	// every sampled query answered identically on the writer and on every
	// replica. Mismatches counts the query/replica pairs that
	// disagreed (0 when Converged).
	Converged  bool `json:"converged"`
	Mismatches int  `json:"mismatches"`
}

// ReplicaExperiment measures replicated serving on the Corel-like L2
// workload with the nodes that ship: an internal/server writer booted
// from a snapshot of the fixture, two internal/server followers
// hydrating from it over HTTP and tailing its delta log, and a router
// fanning queries out across them. Latency discipline is pairedMinima's;
// percentiles are taken over its per-query minima.
func ReplicaExperiment(cfg Config) (*ReplicaResult, error) {
	data, queries, r := corelWorkload(cfg)

	// Hold back a spare pool to append during the convergence rounds.
	spareN := min(len(data)/4, 600)
	spares := data[len(data)-spareN:]
	data = data[:len(data)-spareN]

	sh, err := corelSharded(cfg, data, r, core.CostModel{})
	if err != nil {
		return nil, fmt.Errorf("bench: building replica-experiment index: %w", err)
	}
	// Refits are not journaled, so with the drift loop on the writer could
	// legitimately answer differently from its followers mid-run; it
	// stays off on every node.
	ncfg := server.DefaultConfig()
	ncfg.Recalibrate = "off"
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	serveNode := func(node *server.Server) string {
		srv := httptest.NewServer(node.Handler())
		stops = append(stops, srv.Close, node.Shutdown)
		return srv.URL
	}
	writer, err := corelNode(ncfg, sh)
	if err != nil {
		return nil, fmt.Errorf("bench: booting the writer: %w", err)
	}
	writerURL := serveNode(writer)
	const nReplicas = 2
	urls := make([]string, nReplicas)
	for i := range urls {
		fcfg := ncfg
		fcfg.Hydrate = writerURL
		f, err := server.New(fcfg)
		if err != nil {
			return nil, fmt.Errorf("bench: hydrating replica %d: %w", i, err)
		}
		urls[i] = serveNode(f)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	rt, err := replica.NewRouter(urls, replica.RouterConfig{
		HedgeAfter:  5 * time.Millisecond,
		HealthEvery: 20 * time.Millisecond,
	}, reg)
	if err != nil {
		return nil, fmt.Errorf("bench: building router: %w", err)
	}
	go rt.RunHealth(ctx)
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	runs := max(cfg.Runs, 1)

	// call speaks the nodes' JSON API: body (when non-nil) is POSTed,
	// and a 200 answer is decoded into out.
	hc := &http.Client{}
	call := func(url string, body, out any) error {
		var resp *http.Response
		var err error
		if body == nil {
			resp, err = hc.Get(url)
		} else {
			b, _ := json.Marshal(body)
			resp, err = hc.Post(url, "application/json", bytes.NewReader(b))
		}
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s: %s (%s)", url, resp.Status, b)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	ask := func(url string, q vector.Dense) ([]int32, error) {
		var out struct {
			IDs []int32 `json:"ids"`
		}
		err := call(url+"/query", map[string]any{"point": q}, &out)
		slices.Sort(out.IDs)
		return out.IDs, err
	}
	cursor := func(url string) (uint64, error) {
		var st replica.StatusResponse
		err := call(url+"/replica/status", nil, &st)
		return st.Seq, err
	}

	timed := func(url string) func(int) error {
		return func(i int) error {
			_, err := ask(url, queries[i])
			return err
		}
	}
	direct, routed, err := pairedMinima(len(queries), runs, timed(urls[0]), timed(routerSrv.URL))
	if err != nil {
		return nil, fmt.Errorf("bench: timing pass: %w", err)
	}

	// Convergence rounds: append a batch on the writer, clock the tail
	// drain on the followers.
	rounds := 5
	batch := len(spares) / rounds
	if batch < 1 {
		rounds, batch = 1, len(spares)
	}
	lags := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		var appended struct {
			IDs []int32 `json:"ids"`
		}
		if err := call(writerURL+"/append", map[string]any{"points": spares[round*batch : (round+1)*batch]}, &appended); err != nil {
			return nil, fmt.Errorf("bench: convergence append: %w", err)
		}
		target, err := cursor(writerURL)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, url := range urls {
			for {
				seq, err := cursor(url)
				if err != nil {
					return nil, err
				}
				if seq >= target {
					break
				}
				if time.Since(t0) > 30*time.Second {
					return nil, fmt.Errorf("bench: replicas never caught up to seq %d", target)
				}
				time.Sleep(time.Millisecond)
			}
		}
		lags = append(lags, float64(time.Since(t0).Microseconds())/1e3)
	}

	// Id-identity gate across the writer and every replica.
	mismatches := 0
	for _, q := range queries {
		want, err := ask(writerURL, q)
		if err != nil {
			return nil, err
		}
		for _, url := range urls {
			got, err := ask(url, q)
			if err != nil {
				return nil, err
			}
			if !slices.Equal(got, want) {
				mismatches++
			}
		}
	}

	hedges := scrapeSum(reg, "hybridlsh_router_hedges_total")
	requests := scrapeSum(reg, "hybridlsh_router_requests_total")
	errors := scrapeSum(reg, "hybridlsh_router_request_errors_total")
	hedgeRate := 0.0
	if requests > 0 {
		hedgeRate = hedges / requests
	}
	applied := int64(0)
	for _, url := range urls {
		var st struct {
			Replication struct {
				FramesApplied int64 `json:"frames_applied"`
			} `json:"replication"`
		}
		if err := call(url+"/stats", nil, &st); err != nil {
			return nil, err
		}
		applied += st.Replication.FramesApplied
	}

	res := &ReplicaResult{
		Dataset: "corel-like", N: len(data), Shards: corelShards, Replicas: nReplicas,
		Queries: len(queries), Runs: runs,
		DirectP50US:    stats.Quantile(direct, 0.50),
		DirectP95US:    stats.Quantile(direct, 0.95),
		RouterP50US:    stats.Quantile(routed, 0.50),
		RouterP95US:    stats.Quantile(routed, 0.95),
		HedgeRate:      hedgeRate,
		RequestErrors:  errors,
		ConvergeRounds: rounds,
		ConvergeP50MS:  stats.Quantile(lags, 0.50),
		ConvergeMaxMS:  slices.Max(lags),
		FramesApplied:  applied,
		Converged:      mismatches == 0,
		Mismatches:     mismatches,
	}
	res.OverheadP50Pct = 100 * (res.RouterP50US - res.DirectP50US) / res.DirectP50US
	return res, nil
}

// scrapeSum renders the registry once and sums one family's samples.
func scrapeSum(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return math.NaN()
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		return math.NaN()
	}
	total := 0.0
	for _, s := range exp.Samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// PrintReplica renders the replication comparison like the other tables.
func PrintReplica(w io.Writer, res *ReplicaResult) {
	fmt.Fprintf(w, "dataset=%s n=%d shards=%d replicas=%d queries=%d runs=%d\n",
		res.Dataset, res.N, res.Shards, res.Replicas, res.Queries, res.Runs)
	fmt.Fprintf(w, "  %-14s %12s %12s\n", "path", "p50 µs/q", "p95 µs/q")
	fmt.Fprintf(w, "  %-14s %12.1f %12.1f\n", "direct", res.DirectP50US, res.DirectP95US)
	fmt.Fprintf(w, "  %-14s %12.1f %12.1f\n", "routed", res.RouterP50US, res.RouterP95US)
	fmt.Fprintf(w, "  router overhead p50 %+.2f%%  hedge rate %.3f  request errors %.0f\n",
		res.OverheadP50Pct, res.HedgeRate, res.RequestErrors)
	fmt.Fprintf(w, "  convergence: %d rounds, p50 %.1fms max %.1fms, %d frames applied, converged=%v (mismatches=%d)\n",
		res.ConvergeRounds, res.ConvergeP50MS, res.ConvergeMaxMS, res.FramesApplied, res.Converged, res.Mismatches)
}
