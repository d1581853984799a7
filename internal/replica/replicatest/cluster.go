package replicatest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// Config sizes a test cluster. Zero fields take the defaults noted.
type Config struct {
	N        int     // seed points (default 600)
	Dim      int     // point dimension (default 8)
	Radius   float64 // rNNR radius (default 0.4)
	Shards   int     // writer/replica shard count (default 3)
	Replicas int     // follower count (default 2)
	Seed     uint64  // construction + data seed (default 42)
	LogCap   int     // delta-log retention (default replica.DefaultLogCap)
	Router   replica.RouterConfig
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 600
	}
	if c.Dim == 0 {
		c.Dim = 8
	}
	if c.Radius == 0 {
		c.Radius = 0.4
	}
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Cluster is an in-process replication topology: one writer serving
// its snapshot + delta log, Config.Replicas followers tailing it, and
// a router fanning queries over the followers. Everything listens on
// real loopback sockets so the fault injectors exercise the same code
// paths as a deployment.
type Cluster struct {
	t   *testing.T
	Cfg Config

	Writer  *shard.Sharded[vector.Dense]
	Points  []vector.Dense // seed points; Extra holds appendable spares
	Extra   []vector.Dense
	Queries []vector.Dense

	Log       *replica.Log
	Source    *replica.Source
	WriterURL string
	writerSrv *http.Server

	Nodes []*Node

	Router       *replica.Router
	RouterURL    string
	routerSrv    *http.Server
	RouterFaults *Faults
	healthCancel context.CancelFunc
}

// Node is one follower replica: its tailing follower, its serving
// endpoint, and fault controls for both directions.
type Node struct {
	c        *Cluster
	Follower *replica.Follower[vector.Dense]
	URL      string

	// TailFaults sabotages the follower's snapshot/delta fetches;
	// ServeFaults sabotages connections the node's server accepts
	// (i.e. the router's queries and health probes).
	TailFaults  *Faults
	ServeFaults *Faults

	addr      string
	mu        sync.Mutex
	srv       *http.Server
	runCancel context.CancelFunc
}

// clusterEpoch derives a deterministic writer epoch from the seed (the
// production path uses boot time; tests want reproducibility).
func clusterEpoch(seed uint64) uint64 { return seed*1e9 + 1 }

// builder constructs one shard index the same way the shard tests do.
func builder(dim int, radius float64) shard.Builder[vector.Dense] {
	return func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL2(dim, 2*radius),
			Distance: distance.L2,
			Radius:   radius,
			K:        7,
			Seed:     seed,
		})
	}
}

// clusteredData generates tightly clustered points plus query centers
// (the same shape the shard equivalence tests use, so id-identical
// answers are a meaningful assertion, not a vacuous empty set).
func clusteredData(n, extra, nc, dim int, seed uint64) (points, spares, queries []vector.Dense) {
	r := rng.New(seed)
	centers := make([]vector.Dense, nc)
	for i := range centers {
		c := make(vector.Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	all := make([]vector.Dense, 0, n+extra)
	for i := 0; i < n+extra; i++ {
		c := centers[i%nc]
		p := make(vector.Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.01)
		}
		all = append(all, p)
	}
	return all[:n], all[n:], centers
}

// New boots a full cluster and registers its teardown with t.Cleanup.
func New(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg = cfg.withDefaults()
	c := &Cluster{t: t, Cfg: cfg, RouterFaults: &Faults{}}

	c.Points, c.Extra, c.Queries = clusteredData(cfg.N, cfg.N/2, 20, cfg.Dim, cfg.Seed)
	writer, err := shard.New(c.Points, cfg.Shards, cfg.Seed, builder(cfg.Dim, cfg.Radius))
	if err != nil {
		t.Fatalf("replicatest: writer build: %v", err)
	}
	c.Writer = writer

	c.Log = replica.NewLog(persist.DeltaHeader{
		Epoch:  clusterEpoch(cfg.Seed),
		Metric: persist.MetricL2,
		Dim:    cfg.Dim,
	}, cfg.LogCap)
	writer.SetJournal(replica.NewRecorder[vector.Dense](c.Log))

	c.Source = &replica.Source{
		Log: c.Log,
		WriteSnapshot: func(w io.Writer) (int64, error) {
			return persist.WriteSharded(w, persist.MetricL2, writer)
		},
	}
	mux := http.NewServeMux()
	c.Source.Register(mux)
	mux.HandleFunc("POST /query", queryHandler(func() *shard.Sharded[vector.Dense] { return writer }, cfg.Dim))
	mux.HandleFunc("POST /batch", batchHandler(func() *shard.Sharded[vector.Dense] { return writer }, cfg.Dim))
	c.writerSrv, c.WriterURL = c.serve(mux, nil)

	for i := 0; i < cfg.Replicas; i++ {
		c.Nodes = append(c.Nodes, c.newNode())
	}

	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL
	}
	rcfg := cfg.Router
	if rcfg.Client == nil {
		rcfg.Client = faultyClient(c.RouterFaults)
	}
	if rcfg.HealthEvery == 0 {
		rcfg.HealthEvery = 25 * time.Millisecond
	}
	if rcfg.Timeout == 0 {
		rcfg.Timeout = 2 * time.Second
	}
	if rcfg.HedgeAfter == 0 {
		rcfg.HedgeAfter = 30 * time.Millisecond
	}
	router, err := replica.NewRouter(urls, rcfg, obs.NewRegistry())
	if err != nil {
		t.Fatalf("replicatest: router: %v", err)
	}
	c.Router = router
	hctx, hcancel := context.WithCancel(context.Background())
	c.healthCancel = hcancel
	go router.RunHealth(hctx)
	c.routerSrv, c.RouterURL = c.serve(router.Handler(), nil)

	t.Cleanup(c.shutdown)
	return c
}

func (c *Cluster) shutdown() {
	if c.healthCancel != nil {
		c.healthCancel()
	}
	for _, n := range c.Nodes {
		n.Kill()
	}
	c.routerSrv.Close()
	c.writerSrv.Close()
}

// serve starts an http.Server on a fresh loopback listener (wrapped
// with faults when given) and returns it with its base URL.
func (c *Cluster) serve(h http.Handler, faults *Faults) (*http.Server, string) {
	c.t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.t.Fatalf("replicatest: listen: %v", err)
	}
	var ln net.Listener = l
	if faults != nil {
		ln = &Listener{Listener: l, Faults: faults}
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + l.Addr().String()
}

// newNode hydrates and starts one follower replica.
func (c *Cluster) newNode() *Node {
	c.t.Helper()
	n := &Node{c: c, TailFaults: &Faults{}, ServeFaults: &Faults{}}
	n.Follower = replica.NewFollower[vector.Dense](c.WriterURL, faultyClient(n.TailFaults), persist.MetricL2)
	if err := n.Follower.Hydrate(context.Background()); err != nil {
		c.t.Fatalf("replicatest: hydrate: %v", err)
	}
	n.start("")
	return n
}

// start boots the node's serving endpoint (on addr when non-empty, for
// rejoin under the old URL) and its tailing loop.
func (n *Node) start(addr string) {
	n.c.t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var l net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // rebinding a just-closed port
	}
	if err != nil {
		n.c.t.Fatalf("replicatest: node listen %q: %v", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", queryHandler(n.Follower.Store, n.c.Cfg.Dim))
	mux.HandleFunc("POST /batch", batchHandler(n.Follower.Store, n.c.Cfg.Dim))
	mux.HandleFunc("GET /replica/status", n.Follower.ServeStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(&Listener{Listener: l, Faults: n.ServeFaults})

	ctx, cancel := context.WithCancel(context.Background())
	go n.Follower.Run(ctx, 10*time.Millisecond)

	n.mu.Lock()
	n.srv = srv
	n.addr = l.Addr().String()
	n.URL = "http://" + n.addr
	n.runCancel = cancel
	n.mu.Unlock()
}

// Kill crashes the node: the serving socket closes abruptly and the
// tailing loop stops. Queries and health probes start failing at once.
func (n *Node) Kill() {
	n.mu.Lock()
	srv, cancel := n.srv, n.runCancel
	n.srv, n.runCancel = nil, nil
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if srv != nil {
		srv.Close()
	}
}

// Restart rejoins the node under its previous URL with a fresh
// follower — the crash/rejoin path: state gone, full re-hydration.
func (n *Node) Restart() {
	n.c.t.Helper()
	n.Kill()
	n.Follower = replica.NewFollower[vector.Dense](n.c.WriterURL, faultyClient(n.TailFaults), persist.MetricL2)
	n.start(n.addr)
}

// faultyClient builds an HTTP client whose every request runs through f
// on a fresh connection (keep-alives off, so server-side accept faults
// and crashes hit deterministically instead of reusing pooled conns).
func faultyClient(f *Faults) *http.Client {
	return &http.Client{Transport: &Transport{
		Base:   &http.Transport{DisableKeepAlives: true},
		Faults: f,
	}}
}

// ---- serving handlers ----

type queryRequest struct {
	Point []float32 `json:"point"`
}

type queryResponse struct {
	IDs []int32 `json:"ids"`
}

type batchRequest struct {
	Points [][]float32 `json:"points"`
}

type batchResponse struct {
	Results []queryResponse `json:"results"`
}

// queryHandler serves the minimal JSON query surface the router
// proxies (a thin stand-in for cmd/hybridserve's handler).
func queryHandler(get func() *shard.Sharded[vector.Dense], dim int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sh := get()
		if sh == nil {
			http.Error(w, "not hydrated", http.StatusServiceUnavailable)
			return
		}
		var req queryRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil || len(req.Point) != dim {
			http.Error(w, "bad point", http.StatusBadRequest)
			return
		}
		ids, _ := sh.Query(vector.Dense(req.Point))
		slices.Sort(ids)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(queryResponse{IDs: ids})
	}
}

func batchHandler(get func() *shard.Sharded[vector.Dense], dim int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sh := get()
		if sh == nil {
			http.Error(w, "not hydrated", http.StatusServiceUnavailable)
			return
		}
		var req batchRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil || len(req.Points) == 0 {
			http.Error(w, "bad points", http.StatusBadRequest)
			return
		}
		queries := make([]vector.Dense, len(req.Points))
		for i, p := range req.Points {
			if len(p) != dim {
				http.Error(w, "bad point", http.StatusBadRequest)
				return
			}
			queries[i] = vector.Dense(p)
		}
		results := sh.QueryBatch(queries, 0)
		resp := batchResponse{Results: make([]queryResponse, len(results))}
		for i, res := range results {
			slices.Sort(res.IDs)
			resp.Results[i] = queryResponse{IDs: res.IDs}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

// ---- test-side helpers ----

// QueryRouter posts one query through the router, returning the HTTP
// status and the sorted ids.
func (c *Cluster) QueryRouter(q vector.Dense) (int, []int32, error) {
	body, _ := json.Marshal(queryRequest{Point: q})
	resp, err := http.Post(c.RouterURL+"/query", "application/json", newReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("router: %s: %s", resp.Status, b)
	}
	var out queryResponse
	if err := json.Unmarshal(b, &out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out.IDs, nil
}

// WaitCaughtUp blocks until every currently running node has applied
// the log's current tail (or the deadline passes, failing the test).
func (c *Cluster) WaitCaughtUp(timeout time.Duration) {
	c.t.Helper()
	target := c.Log.Seq()
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		for _, n := range c.Nodes {
			n.mu.Lock()
			running := n.srv != nil
			n.mu.Unlock()
			if !running {
				continue
			}
			if _, seq := n.Follower.Cursor(); seq < target {
				behind++
			}
		}
		if behind == 0 {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("replicatest: %d nodes still behind seq %d after %v", behind, target, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// AssertConverged demands that every running node answers every query
// id-identically to the writer, the tier's core guarantee.
func (c *Cluster) AssertConverged() {
	c.t.Helper()
	for qi, q := range c.Queries {
		want, _ := c.Writer.Query(q)
		slices.Sort(want)
		for ni, n := range c.Nodes {
			sh := n.Follower.Store()
			if sh == nil {
				continue
			}
			got, _ := sh.Query(q)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				c.t.Fatalf("replicatest: node %d query %d: got %v, writer %v", ni, qi, got, want)
			}
		}
	}
}

// newReader avoids importing bytes just for one call site.
type byteReader struct {
	b   []byte
	off int
}

func newReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
