package replicatest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	hybridlsh "repro"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/vector"
)

// Config sizes a test cluster.
type Config struct {
	Replicas int // follower count (default 2)
	LogCap   int // the writer's delta-log retention (0 = replica.DefaultLogCap)
}

// The workload every cluster serves: seed points, their dimension, the
// rNNR radius, the writer's shard count and the data + construction seed.
const (
	clusterN      = 600
	clusterDim    = 8
	clusterRadius = 0.4
	clusterShards = 3
	clusterSeed   = 42
)

// Cluster is an in-process replication topology of real nodes: one
// internal/server writer booted from a snapshot of the seed points,
// Config.Replicas internal/server followers hydrating from and tailing
// it, and a router fanning queries over the followers. Everything
// listens on real loopback sockets behind the fault injectors, so the
// chaos suite exercises the node that ships; the harness's own control
// traffic (mutations, status reads, reference queries) calls the nodes'
// handlers in-process and so never trips an armed fault.
type Cluster struct {
	t *testing.T

	Extra   []vector.Dense // appendable spares, clustered like the seed points
	Queries []vector.Dense // the cluster centers

	// Writer is the node currently holding the writer role (Promote
	// re-points it); Nodes are the replicas the router fans out over.
	Writer *Node
	Nodes  []*Node

	Router       *replica.Router
	RouterURL    string
	routerSrv    *httptest.Server
	RouterFaults *Faults
	healthCancel context.CancelFunc
}

// Node is one real internal/server node on a loopback socket, with
// fault controls for both directions.
type Node struct {
	c   *Cluster
	URL string

	// TailFaults sabotages a follower's snapshot/delta fetches;
	// ServeFaults sabotages connections the node's server accepts
	// (i.e. the router's queries and health probes).
	TailFaults  *Faults
	ServeFaults *Faults

	cfg  server.Config // boot configuration, reused by Restart
	addr string
	mu   sync.Mutex
	node *server.Server
	srv  *http.Server
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
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	c := &Cluster{t: t, RouterFaults: &Faults{}}

	// The writer serves the harness's own clustered points: build them
	// into a snapshot and boot the node from it, exactly as -snapshot does.
	var points []vector.Dense
	points, c.Extra, c.Queries = clusteredData(clusterN, clusterN/2, 20, clusterDim, clusterSeed)
	seedIndex, err := hybridlsh.NewSharded(hybridlsh.L2, points, clusterRadius,
		hybridlsh.WithShards(clusterShards), hybridlsh.WithSeed(clusterSeed))
	if err != nil {
		t.Fatalf("replicatest: writer build: %v", err)
	}
	wcfg := nodeConfig()
	wcfg.Snapshot = filepath.Join(t.TempDir(), "writer.snap")
	wcfg.LogCap = cfg.LogCap
	if _, err := persist.WriteFileAtomic(wcfg.Snapshot, seedIndex.WriteTo); err != nil {
		t.Fatalf("replicatest: writer snapshot: %v", err)
	}
	c.Writer = &Node{c: c, cfg: wcfg, TailFaults: &Faults{}, ServeFaults: &Faults{}}
	c.Writer.start("")

	for i := 0; i < cfg.Replicas; i++ {
		c.Nodes = append(c.Nodes, c.newNode())
	}

	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL
	}
	router, err := replica.NewRouter(urls, replica.RouterConfig{
		Client:      faultyClient(c.RouterFaults),
		HealthEvery: 25 * time.Millisecond,
		Timeout:     2 * time.Second,
		HedgeAfter:  30 * time.Millisecond,
	}, obs.NewRegistry())
	if err != nil {
		t.Fatalf("replicatest: router: %v", err)
	}
	c.Router = router
	hctx, hcancel := context.WithCancel(context.Background())
	c.healthCancel = hcancel
	go router.RunHealth(hctx)
	c.routerSrv = httptest.NewServer(router.Handler())
	c.RouterURL = c.routerSrv.URL

	t.Cleanup(c.shutdown)
	return c
}

// nodeConfig is the configuration every harness node shares. Refits are
// not journaled, so a writer that recalibrated mid-test could
// legitimately answer differently from its followers; the suite asserts
// id-identity, so the drift loop stays off.
func nodeConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.Recalibrate = "off"
	return cfg
}

func (c *Cluster) shutdown() {
	c.healthCancel()
	for _, n := range c.Nodes {
		n.Kill()
	}
	c.routerSrv.Close()
	c.Writer.Kill()
}

// newNode hydrates and starts one follower of the current writer.
func (c *Cluster) newNode() *Node {
	c.t.Helper()
	n := &Node{c: c, cfg: nodeConfig(), TailFaults: &Faults{}, ServeFaults: &Faults{}}
	n.cfg.Client = faultyClient(n.TailFaults)
	n.cfg.Hydrate = c.Writer.URL
	n.start("")
	return n
}

// start boots the node from its configuration and serves it (on addr
// when non-empty, for rejoin under the old URL).
func (n *Node) start(addr string) {
	n.c.t.Helper()
	node, err := server.New(n.cfg)
	if err != nil {
		n.c.t.Fatalf("replicatest: node boot: %v", err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var l net.Listener
	for attempt := 0; attempt < 50; attempt++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // rebinding a just-closed port
	}
	if err != nil {
		n.c.t.Fatalf("replicatest: node listen %q: %v", addr, err)
	}
	srv := &http.Server{Handler: node.Handler()}
	go srv.Serve(&Listener{Listener: l, Faults: n.ServeFaults})

	n.mu.Lock()
	n.node, n.srv = node, srv
	n.addr = l.Addr().String()
	n.URL = "http://" + n.addr
	n.mu.Unlock()
}

// Kill crashes the node: the serving socket closes abruptly and a
// follower's tailing loop stops. Queries and health probes start
// failing at once.
func (n *Node) Kill() {
	n.mu.Lock()
	node, srv := n.node, n.srv
	n.node, n.srv = nil, nil
	n.mu.Unlock()
	if srv != nil {
		srv.Close()
		node.Shutdown()
	}
}

// Restart rejoins the node under its previous URL as a fresh follower
// of the current writer — the crash/rejoin path: state gone, full
// re-hydration.
func (n *Node) Restart() {
	n.c.t.Helper()
	n.Kill()
	n.cfg.Hydrate = n.c.Writer.URL
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

// ---- test-side helpers ----

// call runs one JSON request through h in-process, bypassing h's own
// listener (and so any fault armed on it).
func call(h http.Handler, what, method, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		return rec.Code, fmt.Errorf("replicatest: %s %s on %s: %d %s", method, path, what, rec.Code, rec.Body)
	}
	if out == nil {
		return rec.Code, nil
	}
	return rec.Code, json.Unmarshal(rec.Body.Bytes(), out)
}

// call reaches the node's own API — mutations, so a follower refuses
// them (403) like any client would see, status reads and reference
// queries.
func (n *Node) call(method, path string, body, out any) (int, error) {
	n.mu.Lock()
	node := n.node
	n.mu.Unlock()
	if node == nil {
		return 0, fmt.Errorf("replicatest: node %s is down", n.URL)
	}
	return call(node.Handler(), n.URL, method, path, body, out)
}

type idsResponse struct {
	IDs []int32 `json:"ids"`
}

// Query answers q on this node, ids sorted.
func (n *Node) Query(q vector.Dense) ([]int32, error) {
	var out idsResponse
	_, err := n.call("POST", "/query", map[string]any{"point": q}, &out)
	slices.Sort(out.IDs)
	return out.IDs, err
}

// QueryRouter posts one query through the router, returning the HTTP
// status and the sorted ids.
func (c *Cluster) QueryRouter(q vector.Dense) (int, []int32, error) {
	var out idsResponse
	status, err := call(c.Router.Handler(), "the router", "POST", "/query", map[string]any{"point": q}, &out)
	slices.Sort(out.IDs)
	return status, out.IDs, err
}

// Status reports the node's replication role and cursor.
func (n *Node) Status() (st replica.StatusResponse) {
	n.c.t.Helper()
	if _, err := n.call("GET", "/replica/status", nil, &st); err != nil {
		n.c.t.Fatal(err)
	}
	return st
}

// Rehydrates reports how many times a follower hydrated from scratch
// (the boot hydration counts).
func (n *Node) Rehydrates() int64 {
	n.c.t.Helper()
	var st struct {
		Replication struct {
			Rehydrates int64 `json:"rehydrates"`
		} `json:"replication"`
	}
	if _, err := n.call("GET", "/stats", nil, &st); err != nil {
		n.c.t.Fatal(err)
	}
	return st.Replication.Rehydrates
}

// Promote fails the writer role over to Nodes[i] through the router's
// POST /promote; the node keeps serving reads as a routed member.
// Followers of the old writer rejoin the new one with Restart.
func (c *Cluster) Promote(i int) {
	c.t.Helper()
	if _, err := call(c.Router.Handler(), "the router", "POST", "/promote", map[string]string{"replica": c.Nodes[i].URL}, nil); err != nil {
		c.t.Fatalf("replicatest: promote: %v", err)
	}
	c.Writer = c.Nodes[i]
}

// followers are the running nodes other than the current writer.
func (c *Cluster) followers() []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		n.mu.Lock()
		running := n.node != nil
		n.mu.Unlock()
		if running && n != c.Writer {
			out = append(out, n)
		}
	}
	return out
}

// WaitCaughtUp blocks until every currently running follower has
// applied the writer log's current tail (or the deadline passes,
// failing the test).
func (c *Cluster) WaitCaughtUp(timeout time.Duration) {
	c.t.Helper()
	target := c.Writer.Status()
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		for _, n := range c.followers() {
			if st := n.Status(); st.Epoch != target.Epoch || st.Seq < target.Seq {
				behind++
			}
		}
		if behind == 0 {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("replicatest: %d nodes still behind epoch %d seq %d after %v", behind, target.Epoch, target.Seq, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// AssertConverged demands that every running follower answers every
// query id-identically to the writer, the tier's core guarantee.
func (c *Cluster) AssertConverged() {
	c.t.Helper()
	for qi, q := range c.Queries {
		want, err := c.Writer.Query(q)
		if err != nil {
			c.t.Fatal(err)
		}
		for _, n := range c.followers() {
			got, err := n.Query(q)
			if err != nil {
				c.t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				c.t.Fatalf("replicatest: node %s query %d: got %v, writer %v", n.URL, qi, got, want)
			}
		}
	}
}
