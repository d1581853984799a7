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
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/shard"
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
	// every sampled query answered identically on the writer's store and
	// on every replica. Mismatches counts the query/replica pairs that
	// disagreed (0 when Converged).
	Converged  bool `json:"converged"`
	Mismatches int  `json:"mismatches"`
}

// replicaPoint is the JSON query wire shape the replica servers and the
// router proxy both speak (a subset of cmd/hybridserve's).
type replicaPoint struct {
	Point []float32 `json:"point"`
}

// ReplicaExperiment measures replicated serving on the Corel-like L2
// workload: one writer journaling into a delta log, two followers
// hydrating over HTTP and tailing it, and a router fanning queries out
// across them. Latency discipline matches ServeExperiment: alternating
// pass order, per-query minima across rounds, percentiles over minima.
func ReplicaExperiment(cfg Config) (*ReplicaResult, error) {
	ds := dataset.CorelLike(cfg.Scale, cfg.Seed)
	data, queries := dataset.SplitQueries(ds.Points, cfg.queries(len(ds.Points)), cfg.Seed+1)
	r := ds.Meta.PaperRadii[len(ds.Meta.PaperRadii)/2]

	// Hold back a spare pool to append during the convergence rounds.
	spareN := len(data) / 4
	if spareN > 600 {
		spareN = 600
	}
	spares := data[len(data)-spareN:]
	data = data[:len(data)-spareN]

	const shards = 4
	sh, err := shard.New(data, shards, cfg.Seed+3, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, core.Config[vector.Dense]{
			Family:       lsh.NewPStableL2(dataset.CorelDim, 2*r),
			Distance:     distance.L2,
			Radius:       r,
			Delta:        cfg.Delta,
			K:            7,
			L:            cfg.L,
			HLLRegisters: cfg.M,
			Seed:         seed,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("bench: building replica-experiment index: %w", err)
	}

	// Writer: journal + replication source + its own query endpoint.
	log := replica.NewLog(persist.DeltaHeader{Epoch: cfg.Seed + 1, Metric: persist.MetricL2, Dim: dataset.CorelDim}, 0)
	sh.SetJournal(replica.NewRecorder[vector.Dense](log))
	source := &replica.Source{Log: log, WriteSnapshot: func(w io.Writer) (int64, error) {
		return persist.WriteSharded(w, persist.MetricL2, sh)
	}}
	writerMux := http.NewServeMux()
	source.Register(writerMux)
	writerSrv := httptest.NewServer(writerMux)
	defer writerSrv.Close()

	// Two followers, each serving /query + /replica/status.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const nReplicas = 2
	followers := make([]*replica.Follower[vector.Dense], nReplicas)
	urls := make([]string, nReplicas)
	for i := range followers {
		f := replica.NewFollower[vector.Dense](writerSrv.URL, nil, persist.MetricL2)
		if err := f.Hydrate(ctx); err != nil {
			return nil, fmt.Errorf("bench: hydrating replica %d: %w", i, err)
		}
		go f.Run(ctx, 5*time.Millisecond)
		mux := http.NewServeMux()
		mux.HandleFunc("POST /query", followerQueryHandler(f))
		mux.HandleFunc("GET /replica/status", f.ServeStatus)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		followers[i] = f
		urls[i] = srv.URL
	}

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

	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}

	hc := &http.Client{}
	ask := func(url string, q vector.Dense) ([]int32, error) {
		body, _ := json.Marshal(replicaPoint{Point: q})
		resp, err := hc.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("query %s: %s (%s)", url, resp.Status, b)
		}
		var out struct {
			IDs []int32 `json:"ids"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return out.IDs, nil
	}

	// Warm both paths.
	for _, q := range queries {
		if _, err := ask(urls[0], q); err != nil {
			return nil, fmt.Errorf("bench: warmup direct: %w", err)
		}
		if _, err := ask(routerSrv.URL, q); err != nil {
			return nil, fmt.Errorf("bench: warmup routed: %w", err)
		}
	}

	direct := make([]float64, len(queries))
	routed := make([]float64, len(queries))
	for i := range direct {
		direct[i] = math.Inf(1)
		routed[i] = math.Inf(1)
	}
	pass := func(url string, best []float64) error {
		for i, q := range queries {
			t0 := time.Now()
			if _, err := ask(url, q); err != nil {
				return err
			}
			if d := float64(time.Since(t0).Nanoseconds()) / 1e3; d < best[i] {
				best[i] = d
			}
		}
		return nil
	}
	for run := 0; run < runs; run++ {
		order := []struct {
			url  string
			best []float64
		}{{urls[0], direct}, {routerSrv.URL, routed}}
		if run%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, o := range order {
			if err := pass(o.url, o.best); err != nil {
				return nil, fmt.Errorf("bench: timing pass: %w", err)
			}
		}
	}

	// Convergence rounds: append a batch, clock the tail drain.
	rounds := 5
	batch := len(spares) / rounds
	if batch < 1 {
		rounds, batch = 1, len(spares)
	}
	lags := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		if _, err := sh.Append(spares[round*batch : (round+1)*batch]); err != nil {
			return nil, fmt.Errorf("bench: convergence append: %w", err)
		}
		target := log.Seq()
		t0 := time.Now()
		for {
			done := true
			for _, f := range followers {
				if _, seq := f.Cursor(); seq < target {
					done = false
				}
			}
			if done {
				break
			}
			if time.Since(t0) > 30*time.Second {
				return nil, fmt.Errorf("bench: replicas never caught up to seq %d", target)
			}
			time.Sleep(time.Millisecond)
		}
		lags = append(lags, float64(time.Since(t0).Microseconds())/1e3)
	}

	// Id-identity gate across the writer store and every replica.
	mismatches := 0
	for _, q := range queries {
		want, _ := sh.Query(q)
		slices.Sort(want)
		for _, f := range followers {
			got, _ := f.Store().Query(q)
			slices.Sort(got)
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
	for _, f := range followers {
		applied += f.Applied()
	}

	res := &ReplicaResult{
		Dataset: "corel-like", N: len(data), Shards: shards, Replicas: nReplicas,
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

// followerQueryHandler answers POST /query from a follower's current
// hydration, sorted so answers compare bytewise across replicas.
func followerQueryHandler(f *replica.Follower[vector.Dense]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req replicaPoint
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sh := f.Store()
		if sh == nil {
			http.Error(w, "not hydrated", http.StatusServiceUnavailable)
			return
		}
		ids, _ := sh.Query(vector.Dense(req.Point))
		if ids == nil {
			ids = []int32{}
		}
		slices.Sort(ids)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"ids": ids})
	}
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
