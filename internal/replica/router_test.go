package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

// fakeReplica is a scriptable upstream: per-request delay, status and
// body, plus a /replica/status endpoint reporting a settable cursor.
type fakeReplica struct {
	srv    *httptest.Server
	delay  atomic.Int64 // nanoseconds before answering /query
	status atomic.Int64 // HTTP status for /query (default 200)
	seq    atomic.Uint64
	epoch  atomic.Uint64 // reported epoch (default 1)
	role   atomic.Value  // reported role (default "follower")
	down   atomic.Bool   // refuse /replica/status (health failure)
	hits   atomic.Int64
	body   string

	// promoteTo scripts POST /promote: 0 refuses with 409, otherwise the
	// replica flips to role "source" at this epoch.
	promoteTo atomic.Uint64
}

func newFakeReplica(t *testing.T, body string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{body: body}
	f.status.Store(http.StatusOK)
	f.epoch.Store(1)
	f.role.Store("follower")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /promote", func(w http.ResponseWriter, r *http.Request) {
		to := f.promoteTo.Load()
		if to == 0 {
			http.Error(w, "scripted refusal", http.StatusConflict)
			return
		}
		f.role.Store("source")
		f.epoch.Store(to)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]uint64{"epoch": to})
	})
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		if d := f.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		st := int(f.status.Load())
		if st != http.StatusOK {
			http.Error(w, "scripted failure", st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, f.body)
	})
	mux.HandleFunc("GET /replica/status", func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, "scripted outage", http.StatusInternalServerError)
			return
		}
		role, _ := f.role.Load().(string)
		json.NewEncoder(w).Encode(replica.StatusResponse{
			Format: "hybridlsh-delta/v1", Role: role, Epoch: f.epoch.Load(), Seq: f.seq.Load(),
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func newTestRouter(t *testing.T, cfg replica.RouterConfig, replicas ...*fakeReplica) (*replica.Router, *obs.Registry) {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, f := range replicas {
		urls[i] = f.srv.URL
	}
	reg := obs.NewRegistry()
	rt, err := replica.NewRouter(urls, cfg, reg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return rt, reg
}

// routeQuery posts one query through the router's handler and returns
// the recorded response.
func routeQuery(t *testing.T, rt *replica.Router) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"point":[0]}`))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec
}

// counterValue scrapes one counter from the registry's exposition.
func counterValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exp, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	total := 0.0
	for _, s := range exp.Samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

func TestRouterHedgesSlowReplica(t *testing.T) {
	slow := newFakeReplica(t, `{"ids":[1]}`)
	fast := newFakeReplica(t, `{"ids":[2]}`)
	slow.delay.Store(int64(300 * time.Millisecond))
	// HealthEvery is long: no sweep runs during the test, routing alone
	// decides. The round-robin cursor starts at member 0 (= slow).
	rt, reg := newTestRouter(t, replica.RouterConfig{
		HedgeAfter:  15 * time.Millisecond,
		HealthEvery: time.Hour,
	}, slow, fast)

	rec := routeQuery(t, rt)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `[2]`) {
		t.Fatalf("hedged query: status %d body %q, want 200 from the fast replica", rec.Code, rec.Body.String())
	}
	if v := counterValue(t, reg, "hybridlsh_router_hedges_total"); v < 1 {
		t.Fatalf("hedges_total = %v, want >= 1", v)
	}
	if v := counterValue(t, reg, "hybridlsh_router_hedge_wins_total"); v < 1 {
		t.Fatalf("hedge_wins_total = %v, want >= 1", v)
	}
}

func TestRouterFailsOverOn5xx(t *testing.T) {
	bad := newFakeReplica(t, `{"ids":[1]}`)
	good := newFakeReplica(t, `{"ids":[2]}`)
	bad.status.Store(http.StatusInternalServerError)
	rt, reg := newTestRouter(t, replica.RouterConfig{
		HedgeAfter:  time.Hour, // failover must not wait for the hedge timer
		HealthEvery: time.Hour,
	}, bad, good)

	rec := routeQuery(t, rt)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `[2]`) {
		t.Fatalf("failover query: status %d body %q, want 200 from the good replica", rec.Code, rec.Body.String())
	}
	if v := counterValue(t, reg, "hybridlsh_router_upstream_errors_total"); v < 1 {
		t.Fatalf("upstream_errors_total = %v, want >= 1", v)
	}
	if v := counterValue(t, reg, "hybridlsh_router_request_errors_total"); v != 0 {
		t.Fatalf("request_errors_total = %v, want 0 (the request was answered)", v)
	}
}

func TestRouter4xxIsAnAnswer(t *testing.T) {
	a := newFakeReplica(t, `{"ids":[1]}`)
	b := newFakeReplica(t, `{"ids":[2]}`)
	a.status.Store(http.StatusBadRequest)
	b.status.Store(http.StatusBadRequest)
	rt, _ := newTestRouter(t, replica.RouterConfig{
		HedgeAfter:  time.Hour,
		HealthEvery: time.Hour,
	}, a, b)

	rec := routeQuery(t, rt)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("4xx query: status %d, want 400 passed through", rec.Code)
	}
	if a.hits.Load()+b.hits.Load() != 1 {
		t.Fatalf("%d upstream attempts for a 4xx, want 1 (no failover: every replica would agree)",
			a.hits.Load()+b.hits.Load())
	}
}

// TestRouterRefusesOversizedResponse: an upstream answer longer than
// MaxBody used to come back cut off at the cap with status 200. It must
// fail as a 502 that names the limit — after one attempt, since every
// replica would answer the same and none is at fault — while an answer
// of exactly MaxBody bytes is relayed whole.
func TestRouterRefusesOversizedResponse(t *testing.T) {
	const maxBody = 4096
	atCap := `{"ids":[` + strings.Repeat("1,", 2000) + `1]}`
	atCap += strings.Repeat(" ", maxBody-len(atCap))
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"exactly MaxBody", atCap, http.StatusOK},
		{"MaxBody+1", atCap + " ", http.StatusBadGateway},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeReplica(t, tc.body)
			b := newFakeReplica(t, tc.body)
			rt, reg := newTestRouter(t, replica.RouterConfig{
				HedgeAfter:  time.Hour,
				HealthEvery: time.Hour,
				MaxBody:     maxBody,
			}, a, b)
			rec := routeQuery(t, rt)
			if rec.Code != tc.status {
				t.Fatalf("status %d with %d body bytes, want %d", rec.Code, rec.Body.Len(), tc.status)
			}
			if a.hits.Load()+b.hits.Load() != 1 {
				t.Fatalf("%d upstream attempts, want 1", a.hits.Load()+b.hits.Load())
			}
			if tc.status == http.StatusOK {
				if rec.Body.String() != tc.body {
					t.Fatalf("relayed %d bytes, want the upstream's %d unchanged", rec.Body.Len(), len(tc.body))
				}
				return
			}
			if !strings.Contains(rec.Body.String(), "4096 bytes") {
				t.Fatalf("502 body %q does not name the limit", rec.Body.String())
			}
			if v := counterValue(t, reg, "hybridlsh_router_request_errors_total"); v != 1 {
				t.Fatalf("request_errors_total = %v, want 1", v)
			}
			if rt.Healthy() != 2 {
				t.Fatalf("%d healthy replicas after an oversized answer, want both", rt.Healthy())
			}
		})
	}
}

func TestRouterAllReplicasFailing(t *testing.T) {
	a := newFakeReplica(t, `{"ids":[1]}`)
	b := newFakeReplica(t, `{"ids":[2]}`)
	a.status.Store(http.StatusInternalServerError)
	b.status.Store(http.StatusInternalServerError)
	rt, reg := newTestRouter(t, replica.RouterConfig{
		HedgeAfter:  time.Hour,
		HealthEvery: time.Hour,
	}, a, b)

	rec := routeQuery(t, rt)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all-down query: status %d, want 502", rec.Code)
	}
	if v := counterValue(t, reg, "hybridlsh_router_request_errors_total"); v != 1 {
		t.Fatalf("request_errors_total = %v, want 1", v)
	}
}

func TestRouterHealthDemotionAndPromotion(t *testing.T) {
	a := newFakeReplica(t, `{"ids":[1]}`)
	b := newFakeReplica(t, `{"ids":[2]}`)
	a.seq.Store(50)
	b.seq.Store(50)
	rt, reg := newTestRouter(t, replica.RouterConfig{
		HealthEvery: time.Millisecond,
		LagLimit:    10,
	}, a, b)

	ctx := context.Background()
	rt.HealthSweep(ctx)
	if got := rt.Healthy(); got != 2 {
		t.Fatalf("Healthy = %d after clean sweep, want 2", got)
	}

	// Unreachable status endpoint -> demoted.
	a.down.Store(true)
	time.Sleep(2 * time.Millisecond) // let a's backoff window elapse
	rt.HealthSweep(ctx)
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy = %d with one replica down, want 1", got)
	}
	if v := counterValue(t, reg, "hybridlsh_router_demotions_total"); v < 1 {
		t.Fatalf("demotions_total = %v, want >= 1", v)
	}

	// Back up but lagging past LagLimit -> stays demoted.
	a.down.Store(false)
	a.seq.Store(10)
	b.seq.Store(60)
	for i := 0; i < 8; i++ { // ride out the failure backoff
		time.Sleep(2 * time.Millisecond)
		rt.HealthSweep(ctx)
	}
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy = %d with one replica lagging, want 1", got)
	}
	var lagging replica.MemberStatus
	for _, m := range rt.Members() {
		if !m.Healthy {
			lagging = m
		}
	}
	if lagging.Lag != 50 {
		t.Fatalf("lagging member lag = %d, want 50", lagging.Lag)
	}

	// Caught up -> promoted.
	a.seq.Store(60)
	time.Sleep(2 * time.Millisecond)
	rt.HealthSweep(ctx)
	if got := rt.Healthy(); got != 2 {
		t.Fatalf("Healthy = %d after catch-up, want 2", got)
	}
	if v := counterValue(t, reg, "hybridlsh_router_promotions_total"); v < 1 {
		t.Fatalf("promotions_total = %v, want >= 1", v)
	}
}

func TestRouterHealthzAndReplicas(t *testing.T) {
	a := newFakeReplica(t, `{"ids":[1]}`)
	rt, _ := newTestRouter(t, replica.RouterConfig{HealthEvery: time.Millisecond}, a)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d with a healthy replica, want 200", rec.Code)
	}

	a.down.Store(true)
	a.srv.Close() // kill queries too, not just status
	time.Sleep(2 * time.Millisecond)
	rt.HealthSweep(context.Background())
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with no healthy replica, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/replicas", nil))
	var out struct {
		Healthy  int                    `json:"healthy"`
		Replicas []replica.MemberStatus `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("replicas body: %v", err)
	}
	if out.Healthy != 0 || len(out.Replicas) != 1 || out.Replicas[0].Healthy {
		t.Fatalf("replicas = %+v, want one demoted member", out)
	}
}

// TestRouterRefusesOversizedRequest is the request-side twin of
// TestRouterRefusesOversizedResponse: a body longer than MaxBody used to
// be forwarded cut off at the cap, so the client got the replica's
// "unexpected EOF" 400 where hybridserve itself answers 413. It must be a
// 413 naming the limit, with no replica asked and none blamed — whether
// or not the client stated a Content-Length — while a body of exactly
// MaxBody bytes arrives upstream whole.
func TestRouterRefusesOversizedRequest(t *testing.T) {
	const maxBody = 4096
	atCap := `{"point":[` + strings.Repeat("1,", 2000) + `1]}`
	atCap += strings.Repeat(" ", maxBody-len(atCap))
	for _, tc := range []struct {
		name   string
		body   string
		stated bool
		status int
	}{
		{"exactly MaxBody", atCap, true, http.StatusOK},
		{"exactly MaxBody, length unstated", atCap, false, http.StatusOK},
		{"MaxBody+1", atCap + " ", true, http.StatusRequestEntityTooLarge},
		{"MaxBody+1, length unstated", atCap + " ", false, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got atomic.Value
			var hits atomic.Int64
			up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				b, _ := io.ReadAll(r.Body)
				got.Store(string(b))
				io.WriteString(w, `{"ids":[1]}`)
			}))
			defer up.Close()
			reg := obs.NewRegistry()
			rt, err := replica.NewRouter([]string{up.URL}, replica.RouterConfig{
				HedgeAfter:  time.Hour,
				HealthEvery: time.Hour,
				MaxBody:     maxBody,
			}, reg)
			if err != nil {
				t.Fatal(err)
			}
			var body io.Reader = strings.NewReader(tc.body)
			if !tc.stated {
				body = struct{ io.Reader }{body} // hides the length from NewRequest
			}
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", body))
			if rec.Code != tc.status {
				t.Fatalf("status %d (%s), want %d", rec.Code, rec.Body, tc.status)
			}
			if tc.status == http.StatusOK {
				if hits.Load() != 1 || got.Load() != tc.body {
					t.Fatalf("%d upstream hits, upstream read %d bytes, want the %d sent", hits.Load(), len(got.Load().(string)), len(tc.body))
				}
				return
			}
			if hits.Load() != 0 {
				t.Fatalf("%d upstream attempts for a request over the limit, want 0", hits.Load())
			}
			if !strings.Contains(rec.Body.String(), "4096 bytes") {
				t.Fatalf("413 body %q does not name the limit", rec.Body.String())
			}
			if rt.Healthy() != 1 {
				t.Fatal("the replica was demoted for a request it never saw")
			}
			if v := counterValue(t, reg, "hybridlsh_router_upstream_errors_total"); v != 0 {
				t.Fatalf("upstream_errors_total = %v, want 0", v)
			}
		})
	}
}

// TestRouterReusesUpstreamConnections: with http.DefaultClient's two idle
// connections per host, 16 concurrent clients on one replica opened a
// new upstream connection for almost every third request (256 for 800).
// The router's own transport keeps them all.
func TestRouterReusesUpstreamConnections(t *testing.T) {
	const clients, perClient = 16, 50
	var opened atomic.Int64
	up := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(500 * time.Microsecond) // so that the clients really overlap
		io.WriteString(w, `{"ids":[1]}`)
	}))
	up.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	up.Start()
	defer up.Close()
	rt, err := replica.NewRouter([]string{up.URL}, replica.RouterConfig{HedgeAfter: time.Hour, HealthEvery: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"point":[0]}`)))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A client can send its next request a moment before the transport has
	// shelved the connection its last answer came on, and dial once more.
	if n := opened.Load(); n > 2*clients {
		t.Fatalf("%d upstream connections for %d requests from %d clients, want about one per client", n, clients*perClient, clients)
	}
}

// describedBody builds an answer that can be checked on its own: it names
// its replica and carries the length and CRC-32 of its padding.
func describedBody(replica string, pad []byte) []byte {
	return fmt.Appendf(nil, `{"replica":%q,"n":%d,"sum":%d,"pad":"%s"}`, replica, len(pad), crc32.ChecksumIEEE(pad), pad)
}

func checkDescribedBody(body []byte) error {
	var v struct {
		Replica string `json:"replica"`
		N       int    `json:"n"`
		Sum     uint32 `json:"sum"`
		Pad     string `json:"pad"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("%w in %d bytes", err, len(body))
	}
	if len(v.Pad) != v.N || crc32.ChecksumIEEE([]byte(v.Pad)) != v.Sum {
		return fmt.Errorf("answer of %s: %d pad bytes with sum %d, body says %d and %d",
			v.Replica, len(v.Pad), crc32.ChecksumIEEE([]byte(v.Pad)), v.N, v.Sum)
	}
	if want := describedBody(v.Replica, []byte(v.Pad)); !bytes.Equal(body, want) {
		return fmt.Errorf("answer of %s: %d bytes, want %d and nothing after them", v.Replica, len(body), len(want))
	}
	return nil
}

// TestRouterRelayKeepsBodiesApart: relay buffers are pooled, and a hedged
// request has two attempts filling two of them at once, one of which
// loses and may go on reading after the winner has been relayed and its
// buffer reused. Two replicas answer bodies of 1 B to 300 KB that
// describe themselves, after delays spread around HedgeAfter; one breaks
// off mid-body every fifth answer. Every relayed 200 must verify whole
// under -race, and the hedge and failover paths must really have run.
func TestRouterRelayKeepsBodiesApart(t *testing.T) {
	const clients, perClient = 8, 30
	const hedgeAfter = 3 * time.Millisecond
	newReplica := func(name string, breaksOff bool) *httptest.Server {
		var served atomic.Uint64
		mux := http.NewServeMux()
		mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			k := served.Add(1)
			rnd := rand.New(rand.NewPCG(k, uint64(len(name))))
			time.Sleep(time.Duration(rnd.Int64N(int64(2 * hedgeAfter))))
			pad := make([]byte, 1<<rnd.IntN(19)+rnd.IntN(40000))
			for i := range pad {
				pad[i] = name[0] + byte((uint64(i)+k)%8)
			}
			body := describedBody(name, pad)
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			if breaksOff && k%5 == 0 {
				w.Write(body[:len(body)/2])
				panic(http.ErrAbortHandler) // drops the connection mid-body
			}
			w.Write(body)
		})
		mux.HandleFunc("GET /replica/status", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(replica.StatusResponse{Format: "hybridlsh-delta/v1", Role: "follower", Epoch: 1})
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := newReplica("a", false), newReplica("q", true)
	reg := obs.NewRegistry()
	rt, err := replica.NewRouter([]string{a.URL, b.URL}, replica.RouterConfig{
		HedgeAfter:  hedgeAfter,
		HealthEvery: time.Millisecond,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"point":[0]}`)))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %.100s", rec.Code, rec.Body)
					continue
				}
				if err := checkDescribedBody(rec.Body.Bytes()); err != nil {
					t.Error(err)
				}
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
					t.Errorf("Content-Length %q on a relayed body of %d bytes", cl, rec.Body.Len())
				}
				// A broken-off answer demotes its replica; bring it back so
				// both keep taking first attempts.
				rt.HealthSweep(context.Background())
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{"hybridlsh_router_hedge_wins_total", "hybridlsh_router_upstream_errors_total"} {
		if counterValue(t, reg, name) == 0 {
			t.Errorf("%s = 0: the losing-attempt path never ran", name)
		}
	}
}

// TestRouterAllocCeiling bounds the allocations of one routed 90 KB
// answer, HTTP client and stub replica included (they run in this
// process). It read 134 while io.ReadAll regrew a fresh buffer from 512 B
// for every answer, and reads 118 now.
func TestRouterAllocCeiling(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates")
	}
	const ceiling = 125
	answer := describedBody("a", bytes.Repeat([]byte("12345,"), 15000))
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		w.Write(answer)
	}))
	defer up.Close()
	rt, err := replica.NewRouter([]string{up.URL}, replica.RouterConfig{HedgeAfter: time.Hour, HealthEvery: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	w := &countingWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		w.n = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"point":[0]}`)))
	}
	serve()
	if w.code != http.StatusOK || w.n != len(answer) {
		t.Fatalf("status %d, %d bytes relayed, want 200 and %d", w.code, w.n, len(answer))
	}
	if got := testing.AllocsPerRun(100, serve); got > ceiling {
		t.Errorf("%.0f allocations per routed request, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.0f allocations per routed request (ceiling %d)", got, ceiling)
	}
}

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation allocates on its own and voids an allocation ceiling.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// countingWriter is a ResponseWriter that keeps nothing, so the ceiling
// counts the router and not a recorder's body buffer.
type countingWriter struct {
	h    http.Header
	n    int
	code int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(code int)        { w.code = code }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
