package replica_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
