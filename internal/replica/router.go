package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs"
)

// RouterConfig tunes the query router. The zero value means the
// defaults documented per field.
type RouterConfig struct {
	// Timeout bounds one attempt against one replica (default 2s).
	Timeout time.Duration
	// HedgeAfter is how long the first attempt may run before a hedged
	// second attempt is launched against another replica (default
	// 20ms). Hard failures (connection refused, 5xx) fail over
	// immediately without waiting for the hedge timer.
	HedgeAfter time.Duration
	// HealthEvery is the base health-check interval (default 500ms);
	// consecutive failures back the probes off exponentially up to
	// 32 × HealthEvery.
	HealthEvery time.Duration
	// LagLimit demotes a replica whose applied sequence number trails
	// the most caught-up replica by more than this many frames (default
	// 1024). Demoted replicas keep being probed — and keep being usable
	// as a last resort — but stop receiving routine traffic.
	LagLimit uint64
	// MaxBody caps a proxied request body and an upstream's response
	// body alike (default 8 MiB). Neither is ever passed on cut off: a
	// longer request is refused with 413 before any replica is asked, a
	// longer response fails the request with 502.
	MaxBody int64
	// Client issues all upstream requests; tests inject fault-wrapped
	// transports here. The default is a client of the router's own whose
	// transport keeps as many idle connections per replica as it keeps in
	// all: http.DefaultClient keeps two per host, so sixteen concurrent
	// requests to one replica redialled for almost every one.
	Client *http.Client
}

func (c *RouterConfig) withDefaults() RouterConfig {
	out := *c
	if out.Timeout <= 0 {
		out.Timeout = 2 * time.Second
	}
	if out.HedgeAfter <= 0 {
		out.HedgeAfter = 20 * time.Millisecond
	}
	if out.HealthEvery <= 0 {
		out.HealthEvery = 500 * time.Millisecond
	}
	if out.LagLimit == 0 {
		out.LagLimit = 1024
	}
	if out.MaxBody <= 0 {
		out.MaxBody = 8 << 20
	}
	if out.Client == nil {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = t.MaxIdleConns
		out.Client = &http.Client{Transport: t}
	}
	return out
}

// member is one routed replica.
type member struct {
	url     string
	healthy atomic.Bool
	epoch   atomic.Uint64
	seq     atomic.Uint64
	role    atomic.Value  // string; last probed StatusResponse.Role
	fails   atomic.Uint32 // consecutive health-check failures (backoff exponent)
	nextRaw atomic.Int64  // next health probe, unix nanos
}

func (m *member) roleName() string {
	if r, _ := m.role.Load().(string); r != "" {
		return r
	}
	return "unknown"
}

// MemberStatus is one replica's routing state as reported by /replicas
// and the Members accessor.
type MemberStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Seq     uint64 `json:"seq"`
	Lag     uint64 `json:"lag"`
}

// Router fans /query and /batch out to a replica set: quorum-less reads
// (any caught-up replica answers), per-replica timeouts, hedged retries
// against a second replica, immediate failover on hard errors, and an
// exponential-backoff health loop that demotes unreachable or lagging
// replicas without removing them — when nothing is healthy, demoted
// replicas still serve as a last resort.
type Router struct {
	members []*member
	cfg     RouterConfig
	rr      atomic.Uint64 // round-robin cursor

	reg         *obs.Registry
	up          *obs.GaugeVec
	lag         *obs.GaugeVec
	requests    *obs.CounterVec
	errors      *obs.Counter
	upstreamErr *obs.CounterVec
	hedges      *obs.Counter
	hedgeWins   *obs.Counter
	demotions   *obs.Counter
	promotions  *obs.Counter
	fanout      *obs.HistogramVec
	attempt     *obs.HistogramVec
}

// NewRouter builds a router over the given replica base URLs. All
// replicas start healthy (optimistically routable) and are reconciled
// by the first health sweep. reg may be nil for a private registry.
func NewRouter(urls []string, cfg RouterConfig, reg *obs.Registry) (*Router, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("replica: NewRouter with no replicas")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt := &Router{cfg: cfg.withDefaults(), reg: reg}
	seen := make(map[string]struct{}, len(urls))
	for _, u := range urls {
		for len(u) > 0 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		if u == "" {
			return nil, fmt.Errorf("replica: NewRouter with an empty replica URL")
		}
		if _, dup := seen[u]; dup {
			return nil, fmt.Errorf("replica: NewRouter with duplicate replica %q", u)
		}
		seen[u] = struct{}{}
		m := &member{url: u}
		m.healthy.Store(true)
		rt.members = append(rt.members, m)
	}

	buckets := obs.ExponentialBuckets(100e-6, 2, 16) // 100µs .. ~3.3s
	rt.up = reg.NewGaugeVec("hybridlsh_router_replica_up",
		"Whether the replica is currently routable (1 healthy, 0 demoted).", "replica")
	rt.lag = reg.NewGaugeVec("hybridlsh_router_replica_lag_frames",
		"Delta frames the replica trails the most caught-up replica by.", "replica")
	rt.requests = reg.NewCounterVec("hybridlsh_router_requests_total",
		"Routed requests by endpoint.", "endpoint")
	rt.errors = reg.NewCounter("hybridlsh_router_request_errors_total",
		"Routed requests that exhausted every replica without an answer.")
	rt.upstreamErr = reg.NewCounterVec("hybridlsh_router_upstream_errors_total",
		"Failed attempts against one replica (transport errors, timeouts, 5xx).", "replica")
	rt.hedges = reg.NewCounter("hybridlsh_router_hedges_total",
		"Hedged second attempts launched after HedgeAfter without a first answer.")
	rt.hedgeWins = reg.NewCounter("hybridlsh_router_hedge_wins_total",
		"Requests answered by a hedged or failed-over attempt rather than the first.")
	rt.demotions = reg.NewCounter("hybridlsh_router_demotions_total",
		"Healthy→demoted transitions (unreachable or lagging replicas).")
	rt.promotions = reg.NewCounter("hybridlsh_router_promotions_total",
		"Demoted→healthy transitions (replicas caught back up).")
	rt.fanout = reg.NewHistogramVec("hybridlsh_router_fanout_seconds",
		"End-to-end routed latency by endpoint, hedges and failovers included.", buckets, "endpoint")
	rt.attempt = reg.NewHistogramVec("hybridlsh_router_attempt_seconds",
		"Single-attempt upstream latency by replica.", buckets, "replica")
	// Pre-register every label value so the exposition is complete (and
	// lint-valid) from boot: dashboards see zeroed series, not gaps.
	for _, path := range []string{"/query", "/batch"} {
		rt.requests.With(path)
		rt.fanout.With(path)
	}
	for _, m := range rt.members {
		rt.up.With(m.url).Set(1)
		rt.lag.With(m.url).Set(0)
		rt.upstreamErr.With(m.url)
		rt.attempt.With(m.url)
	}
	return rt, nil
}

// Registry returns the router's metrics registry (for /metrics).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Members reports each replica's routing state. Lag is measured against
// the highest sequence number any member reports.
func (rt *Router) Members() []MemberStatus {
	var maxSeq uint64
	for _, m := range rt.members {
		if s := m.seq.Load(); s > maxSeq {
			maxSeq = s
		}
	}
	out := make([]MemberStatus, len(rt.members))
	for i, m := range rt.members {
		s := m.seq.Load()
		var lag uint64
		if s < maxSeq {
			lag = maxSeq - s
		}
		out[i] = MemberStatus{
			URL:     m.url,
			Healthy: m.healthy.Load(),
			Role:    m.roleName(),
			Epoch:   m.epoch.Load(),
			Seq:     s,
			Lag:     lag,
		}
	}
	return out
}

// Healthy counts currently routable replicas.
func (rt *Router) Healthy() int {
	n := 0
	for _, m := range rt.members {
		if m.healthy.Load() {
			n++
		}
	}
	return n
}

// setHealthy flips a member's routing state, counting transitions.
func (rt *Router) setHealthy(m *member, ok bool) {
	if m.healthy.Swap(ok) == ok {
		return
	}
	if ok {
		rt.promotions.Inc()
		rt.up.With(m.url).Set(1)
	} else {
		rt.demotions.Inc()
		rt.up.With(m.url).Set(0)
	}
}

// ---- health checking ----

// RunHealth probes replica status until ctx is done. Each replica is
// probed every HealthEvery; consecutive failures back its probes off
// exponentially (2^fails, capped at 32×) so a dead replica costs one
// connection attempt every ~16×HealthEvery instead of a hot loop.
func (rt *Router) RunHealth(ctx context.Context) {
	tick := rt.cfg.HealthEvery / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		rt.HealthSweep(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// HealthSweep probes every replica whose backoff has elapsed, once,
// concurrently, and waits for the probes. Exposed so tests (and the
// bench harness) can drive health state deterministically.
func (rt *Router) HealthSweep(ctx context.Context) {
	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	for _, m := range rt.members {
		if m.nextRaw.Load() > now {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			rt.probe(ctx, m)
		}(m)
	}
	wg.Wait()
	rt.reconcileLag()
}

// probe fetches one replica's /replica/status and updates its cursor
// and backoff. Reachability alone promotes; lag demotion is decided
// against the whole set in reconcileLag.
func (rt *Router) probe(ctx context.Context, m *member) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/replica/status", nil)
	if err != nil {
		rt.probeFailed(m)
		return
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.probeFailed(m)
		return
	}
	defer resp.Body.Close()
	var st StatusResponse
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st) != nil {
		rt.probeFailed(m)
		return
	}
	m.epoch.Store(st.Epoch)
	m.seq.Store(st.Seq)
	m.role.Store(st.Role)
	m.fails.Store(0)
	m.nextRaw.Store(time.Now().Add(rt.cfg.HealthEvery).UnixNano())
}

func (rt *Router) probeFailed(m *member) {
	fails := m.fails.Add(1)
	rt.setHealthy(m, false)
	shift := fails
	if shift > 5 {
		shift = 5
	}
	backoff := rt.cfg.HealthEvery << shift
	m.nextRaw.Store(time.Now().Add(backoff).UnixNano())
}

// reconcileLag promotes reachable, caught-up replicas and demotes
// reachable-but-lagging ones, measuring lag against the most caught-up
// member (quorum-less: there is no leader to ask, the freshest replica
// defines "caught up"). Epoch awareness: after a promotion the fleet
// briefly spans two epochs, and sequence numbers only compare within
// one — so members on an older (non-zero) epoch are demoted outright
// until they re-hydrate, and lag is measured among the newest epoch.
// Epoch 0 is a static replica (no replication cursor at all): it is
// exempt from the epoch rule and judged by lag alone, as before.
func (rt *Router) reconcileLag() {
	var maxEpoch uint64
	for _, m := range rt.members {
		if m.fails.Load() == 0 {
			if e := m.epoch.Load(); e > maxEpoch {
				maxEpoch = e
			}
		}
	}
	var maxSeq uint64
	for _, m := range rt.members {
		if m.fails.Load() == 0 {
			if e := m.epoch.Load(); e == maxEpoch || e == 0 {
				if s := m.seq.Load(); s > maxSeq {
					maxSeq = s
				}
			}
		}
	}
	for _, m := range rt.members {
		if m.fails.Load() != 0 {
			continue // unreachable; probeFailed already demoted it
		}
		if e := m.epoch.Load(); e != 0 && e != maxEpoch {
			// Stale incarnation: its cursor is meaningless against the new
			// epoch's. Report the full gap and stand it down until its next
			// probe shows it re-hydrated.
			rt.lag.With(m.url).Set(float64(maxSeq))
			rt.setHealthy(m, false)
			continue
		}
		var lagging uint64
		if s := m.seq.Load(); s < maxSeq {
			lagging = maxSeq - s
		}
		rt.lag.With(m.url).Set(float64(lagging))
		rt.setHealthy(m, lagging <= rt.cfg.LagLimit)
	}
}

// ---- request routing ----

// attemptResult is one upstream attempt's outcome.
type attemptResult struct {
	m       *member
	idx     int // attempt ordinal (0 = primary, >0 = hedge/failover)
	status  int
	header  http.Header
	body    *bufpool.Buf // proxy returns it to the pool once relayed
	elapsed time.Duration
	err     error
}

// order returns the members to try, round-robin over healthy ones
// first, then the demoted remainder as a last resort.
func (rt *Router) order() []*member {
	n := len(rt.members)
	// The modulus is taken in uint64: converting the cursor to int first
	// turns it negative past 2³¹ requests on 32-bit hosts (2⁶³ on 64-bit).
	start := int((rt.rr.Add(1) - 1) % uint64(n))
	healthy := make([]*member, 0, n)
	demoted := make([]*member, 0, n)
	for i := 0; i < n; i++ {
		m := rt.members[(start+i)%n]
		if m.healthy.Load() {
			healthy = append(healthy, m)
		} else {
			demoted = append(demoted, m)
		}
	}
	return append(healthy, demoted...)
}

// do routes one request body to the replica set: primary attempt, a
// hedged second attempt if the primary dawdles past HedgeAfter,
// immediate failover on hard failures, first answer wins. A 4xx is an
// answer (the client's request is at fault, every replica would agree),
// and so is a response longer than MaxBody: the request fails there,
// without failover and without blaming the replica. Transport errors,
// timeouts and 5xx burn the attempt and move on.
func (rt *Router) do(ctx context.Context, path string, body []byte) (attemptResult, error) {
	order := rt.order()
	resc := make(chan attemptResult, len(order))
	launched := 0
	launch := func() {
		m := order[launched]
		idx := launched
		launched++
		go func() {
			resc <- rt.attemptOne(ctx, m, idx, path, body)
		}()
	}
	launch()
	hedge := time.NewTimer(rt.cfg.HedgeAfter)
	defer hedge.Stop()

	var lastErr error
	pending := 1
	for pending > 0 {
		select {
		case res := <-resc:
			pending--
			if errors.Is(res.err, bufpool.ErrTooLarge) {
				return attemptResult{}, res.err
			}
			if res.err == nil && res.status < 500 {
				if res.idx > 0 {
					rt.hedgeWins.Inc()
				}
				return res, nil
			}
			rt.noteUpstreamFailure(res)
			if res.err != nil {
				lastErr = res.err
			} else {
				lastErr = fmt.Errorf("replica %s: %s", res.m.url, http.StatusText(res.status))
			}
			if launched < len(order) {
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(order) {
				rt.hedges.Inc()
				launch()
				pending++
			}
		case <-ctx.Done():
			return attemptResult{}, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("replica: no replicas")
	}
	return attemptResult{}, fmt.Errorf("replica: all %d replicas failed: %w", len(order), lastErr)
}

// attemptOne sends one upstream request with the per-replica timeout.
func (rt *Router) attemptOne(ctx context.Context, m *member, idx int, path string, body []byte) attemptResult {
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	res := attemptResult{m: m, idx: idx}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		res.err = err
		res.elapsed = time.Since(t0)
		return res
	}
	defer resp.Body.Close()
	buf := bufpool.Get()
	buf.B, err = bufpool.ReadBody(buf.B, resp.Body, resp.ContentLength, rt.cfg.MaxBody)
	res.elapsed = time.Since(t0)
	if err != nil {
		bufpool.Put(buf) // the read has returned: nothing else holds it
		if errors.Is(err, bufpool.ErrTooLarge) {
			res.err = fmt.Errorf("replica %s: response %w of %d bytes", m.url, err, rt.cfg.MaxBody)
		} else {
			res.err = fmt.Errorf("replica %s: body: %w", m.url, err)
		}
		return res
	}
	res.body = buf
	res.status = resp.StatusCode
	res.header = resp.Header
	rt.attempt.With(m.url).Observe(res.elapsed.Seconds())
	return res
}

// noteUpstreamFailure records a failed attempt and demotes the replica
// so routine traffic stops hitting it before the next health sweep
// confirms (the sweep will promote it back when it recovers).
func (rt *Router) noteUpstreamFailure(res attemptResult) {
	rt.upstreamErr.With(res.m.url).Inc()
	if res.err != nil {
		rt.setHealthy(res.m, false)
		res.m.fails.Add(1)
	}
}

// ---- HTTP surface ----

// Handler returns the router's serving mux: POST /query and POST
// /batch proxied to the replica set, POST /promote to flip a named
// follower into the writer role, GET /replicas for routing state,
// GET /healthz (200 while at least one replica is routable) and GET
// /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, "/query")
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, "/batch")
	})
	mux.HandleFunc("POST /promote", rt.handlePromote)
	mux.HandleFunc("GET /replicas", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Healthy  int            `json:"healthy"`
			Replicas []MemberStatus `json:"replicas"`
		}{rt.Healthy(), rt.Members()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if rt.Healthy() == 0 {
			http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /metrics", rt.reg)
	return mux
}

// handlePromote forwards a promotion to one named member: POST
// {"replica": "<url>"} flips that follower into a writer (the member
// must be in the routed set — the router refuses to promote arbitrary
// URLs). On success the router re-probes the whole fleet immediately,
// so the answer already reflects the new epoch's routing state instead
// of waiting out a health interval during which the old epoch's
// followers would still be routed.
func (rt *Router) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Replica string `json:"replica"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "bad promote request: "+err.Error(), http.StatusBadRequest)
		return
	}
	for len(req.Replica) > 0 && req.Replica[len(req.Replica)-1] == '/' {
		req.Replica = req.Replica[:len(req.Replica)-1]
	}
	var target *member
	for _, m := range rt.members {
		if m.url == req.Replica {
			target = m
			break
		}
	}
	if target == nil {
		http.Error(w, fmt.Sprintf("replica %q is not a routed member", req.Replica), http.StatusNotFound)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, target.url+"/promote", nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := rt.cfg.Client.Do(preq)
	if err != nil {
		http.Error(w, fmt.Sprintf("promote %s: %v", target.url, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("promote %s: %v", target.url, err), http.StatusBadGateway)
		return
	}
	if resp.StatusCode == http.StatusOK {
		// Force a fresh look at every member now that the epochs moved.
		for _, m := range rt.members {
			m.nextRaw.Store(0)
		}
		rt.HealthSweep(r.Context())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// proxy routes one request and relays the winning replica's answer.
// Both bodies are held whole: a hedge needs the request twice, and "first
// whole answer wins", failover after a mid-body error, the oversize 502
// and 4xx-is-an-answer all need the answer before the status line
// commits. The answer's buffer is pooled, and goes back only here, once
// written out — a losing attempt may still be reading into its own, so
// that one is left to the collector. The request's is not pooled at all:
// a transport may go on sending from it after its attempt has lost.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, path string) {
	t0 := time.Now()
	rt.requests.With(path).Inc()
	body, err := bufpool.ReadBody(nil, r.Body, r.ContentLength, rt.cfg.MaxBody)
	if errors.Is(err, bufpool.ErrTooLarge) {
		// Every replica would refuse it too; none is asked, none is blamed.
		http.Error(w, fmt.Sprintf("request %v of %d bytes", err, rt.cfg.MaxBody), http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	res, err := rt.do(r.Context(), path, body)
	rt.fanout.With(path).Observe(time.Since(t0).Seconds())
	if err != nil {
		rt.errors.Inc()
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(res.body.B)))
	w.WriteHeader(res.status)
	w.Write(res.body.B)
	bufpool.Put(res.body)
}
