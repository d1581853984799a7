// Command hybridrouter fans hybridserve queries out across a fleet of
// replicas. It is the read path's front door in a replicated
// deployment (see docs/REPLICATION.md): one writer journals mutations,
// N stateless replicas hydrate and tail it (-hydrate on hybridserve),
// and the router keeps /query and /batch answering through replica
// crashes, restarts and lag.
//
//	hybridrouter -addr :8090 -replicas http://replica1:8080,http://replica2:8080
//
// Routing policy (internal/replica.Router):
//
//   - Round-robin over healthy replicas, with per-attempt timeouts.
//   - A slow attempt is hedged: after -hedge the router launches a
//     second attempt against another replica and answers with
//     whichever returns first.
//   - Hard failures (connection refused, 5xx) fail over immediately.
//   - 4xx is an answer, not a failure: every replica would agree that
//     the request is malformed, so it is passed through unretried.
//   - Request and response bodies are buffered whole, each capped at
//     -maxbody: a longer request gets 413 without reaching a replica, a
//     longer response 502 after one attempt — never a cut-off relay.
//   - Background health checks poll GET /replica/status every -health
//     (with exponential backoff on failures); unreachable replicas are
//     demoted, and replicas whose delta cursor trails the most
//     caught-up one by more than -laglimit frames are demoted too —
//     demoted, not removed: they keep being probed, rejoin on
//     recovery, and remain a last resort when nothing healthy is left.
//   - Epoch awareness: after a failover promotion the fleet briefly
//     spans two writer epochs, and sequence numbers only compare
//     within one — members still reporting an older (non-zero) epoch
//     are demoted until they re-hydrate; epoch-0 static replicas are
//     judged by lag alone.
//
// Endpoints:
//
//	POST /query     proxied to a replica
//	POST /batch     proxied to a replica
//	POST /promote   promote a named member to writer ({"replica": url});
//	                forwarded to that replica's /promote, then the whole
//	                fleet is re-probed so routing reflects the new epoch
//	GET  /replicas  per-replica routing state (healthy, role, epoch, seq, lag)
//	GET  /healthz   200 while at least one replica is healthy, else 503
//	GET  /metrics   hybridlsh_router_* gauges, counters and histograms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

type routerConfig struct {
	addr     string
	replicas string
	timeout  time.Duration
	hedge    time.Duration
	health   time.Duration
	lagLimit uint64
	maxBody  int64
}

func defaultRouterConfig() routerConfig {
	return routerConfig{
		addr:     ":8090",
		timeout:  2 * time.Second,
		hedge:    20 * time.Millisecond,
		health:   500 * time.Millisecond,
		lagLimit: 1024,
		maxBody:  8 << 20,
	}
}

// build turns the flag config into a running-ready router; split from
// main so tests can exercise the exact wiring the binary ships.
func build(cfg routerConfig) (*replica.Router, error) {
	var urls []string
	for _, u := range strings.Split(cfg.replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("no replicas: pass -replicas with at least one URL")
	}
	for _, u := range urls {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("replica %q is not an http(s) URL", u)
		}
	}
	return replica.NewRouter(urls, replica.RouterConfig{
		Timeout:     cfg.timeout,
		HedgeAfter:  cfg.hedge,
		HealthEvery: cfg.health,
		LagLimit:    cfg.lagLimit,
		MaxBody:     cfg.maxBody,
	}, obs.NewRegistry())
}

func main() {
	cfg := defaultRouterConfig()
	flag.StringVar(&cfg.addr, "addr", cfg.addr, "listen address")
	flag.StringVar(&cfg.replicas, "replicas", cfg.replicas, "comma-separated replica base URLs")
	flag.DurationVar(&cfg.timeout, "timeout", cfg.timeout, "per-attempt upstream timeout")
	flag.DurationVar(&cfg.hedge, "hedge", cfg.hedge, "hedge a slow attempt with a second replica after this long")
	flag.DurationVar(&cfg.health, "health", cfg.health, "base health-check interval (failures back off exponentially)")
	flag.Uint64Var(&cfg.lagLimit, "laglimit", cfg.lagLimit, "demote a replica trailing the most caught-up one by more than this many delta frames")
	flag.Int64Var(&cfg.maxBody, "maxbody", cfg.maxBody, "cap in bytes on a proxied request body (413 past it) and on a replica's response body (502 past it); both are buffered whole")
	flag.Parse()

	rt, err := build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridrouter:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.RunHealth(ctx)

	log.Printf("hybridrouter: routing %d replicas, listening on %s", len(rt.Members()), cfg.addr)
	hs := &http.Server{Addr: cfg.addr, Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "hybridrouter:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Print("hybridrouter: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "hybridrouter:", err)
		os.Exit(1)
	}
}
