// Command hybridserve serves a sharded hybrid-LSH index over HTTP JSON.
// It is the reproduction's traffic-facing layer: queries fan out across
// the shards in parallel, appends grow one shard while the others keep
// serving, and deletes are immediate tombstones — all concurrency-safe
// (see internal/shard).
//
//	hybridserve -addr :8080 -metric l2 -dim 16 -n 20000 -r 0.4 -shards 8
//
// The index starts out holding n synthetic clustered points (so the
// server is queryable out of the box) and grows via /append. Endpoints:
//
//	GET  /healthz  liveness: {"status":"ok"}
//	POST /query    {"point": [...], "probes": T?} -> ids + per-query stats
//	POST /batch    {"points": [[...], ...]}       -> one result per query
//	POST /append   {"points": [[...], ...]}       -> assigned ids
//	POST /delete   {"ids": [...]}                 -> tombstone count
//	POST /compact  {"shard": j} or empty body     -> drop tombstoned points from buckets
//	POST /recalibrate                             -> force a cost-model refit from the drift windows
//	POST /snapshot                                -> persist to the -snapshot path
//	POST /promote                                 -> flip a tailing replica into the writer at a new epoch
//	GET  /snapshot        stream the index as a hybridlsh-snap/v1 snapshot (replica hydration)
//	GET  /delta?after=N   delta frames after sequence N (replica tailing; 410 once trimmed)
//	GET  /replica/status  replication cursor: {"format","role","epoch","seq"}
//	GET  /stats    topology, strategy mix, compactions, drift, recalibration, cache, replication, latency
//	GET  /metrics  Prometheus text exposition of the same telemetry
//
// # Replication
//
// Every writer doubles as a replication source: mutations are recorded
// in an in-memory delta log (-deltalog frames of retention) as
// hybridlsh-delta/v1 frames, GET /snapshot streams the index stamped
// with the log's epoch and covered sequence number, and GET /delta
// serves the frames after a replica's cursor. Starting a second server
// with -hydrate http://writer:8080 turns it into a stateless read-only
// replica: it hydrates from the snapshot, tails the delta log, and
// converges to id-identical answers (see internal/replica and
// docs/REPLICATION.md). -hydrate with a file path instead boots a
// static read-only replica pinned to that snapshot. Replicas reject
// the mutating endpoints with 403, never self-compact (compactions
// replay exactly as the writer journaled them), and never refit their
// cost model — refits are not journaled, and a refit can flip a
// strategy choice, so replicas adopt new constants only through a new
// snapshot epoch. cmd/hybridrouter fans queries out across replicas.
//
// # Durability and failover
//
// -waldir DIR spills the delta log to disk as size-capped segment files
// (-walseg bytes each) of hybridlsh-delta/v1 frames; -fsync picks the
// durability/latency trade (always, interval, off — see
// docs/REPLICATION.md). A SIGKILLed writer restarted with the same
// -waldir replays the intact frame prefix, truncates any torn tail, and
// resumes the SAME epoch and sequence cursor, so acknowledged mutations
// survive the crash and followers keep tailing without a re-hydrate.
// POST /snapshot additionally truncates WAL segments the snapshot fully
// covers, bounding the directory. POST /promote is the failover lever:
// it flips a tailing replica into a writer at a new epoch seeded from
// its converged cursor, re-enabling mutations, auto-compaction and (if
// -recalibrate=auto was asked for) the drift loop; the router demotes
// members still on the old epoch until they re-hydrate.
//
// # Closing the drift loop
//
// The drift monitor (PR 6) measures whether the calibrated α/β still
// describe this machine; -recalibrate=auto (the default) acts on that
// signal: once both strategies' ns-per-cost-unit windows are full and
// their time_ratio sits outside a ±25% dead band, the server refits
// α' = α·p50(LSH ns/cost), β' = β·p50(linear ns/cost), swaps the model
// into every shard atomically (queries never pause), bumps
// hybridlsh_cost_refits_total, resets the drift windows (they are
// denominated in the old constants) and logs old → new. The windows are
// also reset whenever a compaction lands, so a refit never triggers on
// evidence that straddles a bucket rewrite. POST /recalibrate forces a
// refit immediately; -recalibrate=off disables both paths. Snapshots
// always persist the *current* model, so a warm restart keeps its
// refitted constants.
//
// -cache N puts an N-entry LRU result cache in front of the fan-out:
// a repeated query (bit-identical point, same probe/radius override) is
// answered without touching any shard or deciding a strategy. Entries
// are stamped with per-shard generation counters bumped on every
// Append/Delete/Compact/refit, so a cached answer is never served
// across a mutation — tombstoned ids cannot resurrect and new points
// cannot be missed. Hits are marked "cached": true in responses, skip
// the drift windows (they would poison the refitter's timing samples),
// and show up in hybridlsh_cache_{hits,misses,invalidations}_total.
//
// # Observability
//
// GET /metrics serves the whole telemetry surface in the Prometheus
// text format (internal/obs, no external client library): per-strategy
// shard-answer counters, estimate/search/wall latency histograms, the
// HLL estimate-error drift histogram, per-shard topology gauges and the
// cost-model drift gauges. /query and /batch accept an optional
// "trace": true field; the response then carries a "trace" block per
// answered query with the full Algorithm-2 decision record — per-shard
// strategy, collision count, HLL estimate vs actual candidates, the
// α/β cost terms both ways, and the estimate/search time split.
//
// -trace-sample N logs every Nth answered query's trace as one
// structured JSON log line (0, the default, disables sampling), so
// operators get a decision audit trail without per-request opt-in.
// -pprof ADDR serves net/http/pprof on a separate listener, kept off
// the public mux so profiling endpoints are never exposed to clients.
// On graceful shutdown the server flushes a final metrics snapshot
// line (queries, strategy mix, drift, topology) to the log before
// exiting, so post-mortems see the counters' last state.
//
// # Multi-probe serving
//
// Passing -probes T (l2 only) serves a multi-probe index: every shard
// probes, besides each query's home bucket, the T neighboring buckets
// most likely to hold near points, so far fewer tables (-tables,
// default 10 in this mode) reach the recall classic hybrid LSH buys
// with L = 50 — the memory-constrained deployment mode. /query and
// /batch then accept an optional "probes" field overriding T for that
// request (clamped to 1024; 0 probes only home buckets), and /stats
// gains a "multiprobe" block with the configured T and probe counters.
// Snapshots record the probe configuration, so a warm restart of a
// multi-probe server probes identical bucket sequences.
//
// # Covering serving (guaranteed recall)
//
// Passing -radius r (hamming only, incompatible with -probes) serves a
// covering-LSH index (Pagh, SODA 2016): every shard maintains
// 2^(r+1)−1 mask tables drawn so that any point within Hamming radius r
// of a query is guaranteed — probability 1, not 1−δ — to share a bucket
// with it, so every answer has recall 1.0. /query and /batch then accept
// an optional "radius" field narrowing the reporting radius for that
// request (0 ≤ radius ≤ r; larger values are rejected, because the
// tables only cover pairs within r), and /stats gains a "covering" block
// with the built radius, the table count and per-request counters.
// Snapshots record the covering parameters (radius and each shard's
// random map φ), so a warm restart keeps the guarantee bit for bit.
//
// Every request body is capped at -maxbody bytes (default 8 MiB);
// oversized bodies get a 413 JSON error. Deletes are tombstones that
// compaction makes real: once a shard's tombstone ratio exceeds
// -compactthreshold (default 0.2) the shard is compacted automatically —
// dead points leave the buckets, the per-bucket sketches are rebuilt
// from live ids, the hash functions are kept — so the hybrid cost model
// keeps choosing strategies from live counts under delete-heavy traffic.
// POST /compact forces the same rewrite on demand (one shard, or all
// when the body is empty). Queries on the other shards never block on a
// compaction; queries on the shard being compacted keep flowing too,
// unless an append routed to that same shard arrives mid-rewrite (the
// waiting writer then parks later readers until the rewrite finishes).
//
// For -metric l2 a point is a dim-length array of numbers; for -metric
// hamming it is a dim-length array of 0/1 bits.
//
// # Warm restarts
//
// Passing -snapshot FILE makes the server load that hybridlsh-snap/v1
// snapshot at boot instead of building a synthetic index — the
// expensive work (hashing every point into L tables, building the
// bucket sketches) was done by whoever wrote the snapshot, so the
// server answers its first query in the time it takes to read the
// file, with results id-for-id identical to the saved index (tombstoned
// ids stay deleted; appends continue from the saved high-water mark).
// If the file does not exist yet the server starts from the synthetic
// seed dataset as usual. POST /snapshot writes the current index to the
// same file atomically via temp-file-plus-rename, so a crash mid-write
// never corrupts the snapshot a later boot will read; appends are
// blocked for the duration of the write while queries keep flowing.
// The write path is fixed by the -snapshot flag (never taken from the
// request), so HTTP clients cannot direct writes elsewhere.
//
// A reload is answer-equivalent to the saved index: every hash
// function, bucket and sketch survives, so an index that saw no deletes
// answers id-for-id identically. Tombstoned points are compacted out of
// the snapshot (their ids stay reserved and deleted), which shrinks the
// affected buckets — a query that straddled the cost-model boundary may
// therefore pick the other strategy after the restart, with the usual
// per-point δ guarantee either way.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	hybridlsh "repro"
	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/stats"
)

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.addr, "addr", cfg.addr, "listen address")
	flag.StringVar(&cfg.metric, "metric", cfg.metric, "distance metric: l2 or hamming")
	flag.IntVar(&cfg.dim, "dim", cfg.dim, "point dimension (bits for hamming)")
	flag.IntVar(&cfg.n, "n", cfg.n, "synthetic seed-dataset size")
	flag.IntVar(&cfg.shards, "shards", cfg.shards, "number of index shards")
	flag.Float64Var(&cfg.radius, "r", cfg.radius, "reporting radius the index is built for")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed-dataset and construction seed")
	flag.IntVar(&cfg.window, "latwindow", cfg.window, "latency-percentile window (observations)")
	flag.StringVar(&cfg.snapshot, "snapshot", cfg.snapshot,
		"snapshot file: loaded at boot when it exists (dim/r/shards then come from the snapshot), written by POST /snapshot")
	flag.Int64Var(&cfg.maxBody, "maxbody", cfg.maxBody,
		"maximum request body size in bytes; larger bodies get a 413 JSON error")
	flag.Float64Var(&cfg.compactThresh, "compactthreshold", cfg.compactThresh,
		"auto-compact a shard once its tombstone ratio exceeds this; >= 1 disables auto-compaction")
	flag.IntVar(&cfg.probes, "probes", cfg.probes,
		"serve a multi-probe index probing T extra buckets per table (l2 only; 0 = classic hybrid index)")
	flag.IntVar(&cfg.tables, "tables", cfg.tables,
		"hash tables per shard index (0 = default: 50 classic, 10 multi-probe)")
	flag.IntVar(&cfg.coverRadius, "radius", cfg.coverRadius,
		"serve a covering-LSH index with guaranteed recall within this integer Hamming radius (hamming only; 0 = classic)")
	flag.IntVar(&cfg.traceSample, "trace-sample", cfg.traceSample,
		"log every Nth answered query's full decision trace as a structured JSON line (0 = off)")
	flag.StringVar(&cfg.pprofAddr, "pprof", cfg.pprofAddr,
		"serve net/http/pprof on this separate address (empty = off; keep it private)")
	flag.StringVar(&cfg.recalibrate, "recalibrate", cfg.recalibrate,
		"online cost-model recalibration: auto refits alpha/beta when drift leaves the dead band and enables POST /recalibrate, off disables both")
	flag.IntVar(&cfg.cacheSize, "cache", cfg.cacheSize,
		"result-cache entry capacity; repeated queries are answered from an LRU invalidated on every mutation (0 = off)")
	flag.StringVar(&cfg.quant, "quant", cfg.quant,
		"point-store quantization: sq8 keeps a scalar-quantized verification copy (l2 only; answers stay id-identical), off stores exact values only; snapshots restore their recorded mode")
	flag.StringVar(&cfg.hydrate, "hydrate", cfg.hydrate,
		"run as a read-only replica hydrated from this source: an http(s) URL of a writer (hydrates from GET /snapshot, then tails GET /delta and converges continuously) or a local snapshot file path (static replica)")
	flag.IntVar(&cfg.logCap, "deltalog", cfg.logCap,
		"delta-log retention in frames on a writer; a replica that falls further behind must re-hydrate from the snapshot (0 = default)")
	flag.StringVar(&cfg.waldir, "waldir", cfg.waldir,
		"spill the delta log to segmented WAL files in this directory; a restarted writer replays them and resumes the same epoch and cursor, so followers keep tailing without a re-hydrate (empty = in-memory log only)")
	flag.StringVar(&cfg.fsync, "fsync", cfg.fsync,
		"WAL fsync policy: always (every frame durable before its ack), interval (background flush; a crash can lose the last interval) or off (the OS decides)")
	flag.Int64Var(&cfg.walSeg, "walseg", cfg.walSeg,
		"WAL segment rotation size in bytes (0 = default 64 MiB); snapshots truncate fully-covered segments")
	flag.Parse()

	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridserve:", err)
		os.Exit(1)
	}
	switch {
	case srv.readOnly && srv.loadedFrom != "":
		log.Printf("hybridserve: read-only replica hydrated from %s (%d live points)", srv.loadedFrom, srv.be.topo().Live)
	case srv.loadedFrom != "":
		log.Printf("hybridserve: warm start from %s (%d live points)", srv.loadedFrom, srv.be.topo().Live)
	}
	mode := ""
	if srv.cfg.probes > 0 {
		mode = fmt.Sprintf(" multi-probe T=%d", srv.cfg.probes)
	}
	if srv.cfg.coverRadius > 0 {
		mode = fmt.Sprintf(" covering r=%d", srv.cfg.coverRadius)
	}
	log.Printf("hybridserve: %s%s index, n=%d dim=%d r=%v shards=%d, listening on %s",
		srv.cfg.metric, mode, srv.be.topo().Live, srv.cfg.dim, srv.reportRadius(), srv.cfg.shards, cfg.addr)
	if cfg.pprofAddr != "" {
		go servePprof(cfg.pprofAddr)
	}
	if err := serve(cfg.addr, srv.handler(), srv.shutdown); err != nil {
		fmt.Fprintln(os.Stderr, "hybridserve:", err)
		os.Exit(1)
	}
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests for up to 10 seconds and runs the final-flush hook once the
// drain finishes, so the flushed counters include every answered request.
func serve(addr string, h http.Handler, finalFlush func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Print("hybridserve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(sctx)
	finalFlush()
	return err
}

// servePprof exposes net/http/pprof on its own mux and listener, so the
// profiling endpoints never share an address with the public API.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("hybridserve: pprof listening on %s", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("hybridserve: pprof server: %v", err)
	}
}

type config struct {
	addr          string
	metric        string
	dim           int
	n             int
	shards        int
	radius        float64
	seed          uint64
	window        int
	snapshot      string
	maxBody       int64
	compactThresh float64
	probes        int
	tables        int
	coverRadius   int
	traceSample   int
	pprofAddr     string
	recalibrate   string
	cacheSize     int
	quant         string
	hydrate       string
	logCap        int
	waldir        string
	fsync         string
	walSeg        int64
}

func defaultConfig() config {
	return config{
		addr:          ":8080",
		metric:        "l2",
		dim:           16,
		n:             20000,
		shards:        8,
		radius:        0.4,
		seed:          1,
		window:        4096,
		maxBody:       8 << 20,
		compactThresh: shard.DefaultCompactionThreshold,
		recalibrate:   "auto",
		quant:         "off",
		fsync:         replica.FsyncAlways,
	}
}

// maxProbeOverride caps the per-request "probes" field: probe-key
// generation is O(T) heap work per table, so an unbounded override
// would hand clients a cheap way to burn server CPU.
const maxProbeOverride = 1024

// backend abstracts the two point types behind the JSON boundary; the
// concrete engines parse requests into their own P. probes carries the
// request's optional probe override (nil = the server's configured
// mode) and is rejected by non-multi-probe backends; radius carries the
// optional covering-radius narrowing and is rejected by non-covering
// backends.
type backend interface {
	query(raw json.RawMessage, probes, radius *int) (*queryResult, error)
	batch(raw []json.RawMessage, workers int, probes, radius *int) ([]*queryResult, error)
	appendPoints(raw []json.RawMessage) ([]int32, error)
	remove(ids []int32) int
	compact(shardIdx int) (int, error) // shardIdx < 0 compacts every shard
	autoCompact(threshold float64)
	snapshot(path string) (int64, error)
	streamSnapshot(w io.Writer) (int64, error)
	installJournal(l *replica.Log)
	// syncJournal flushes the installed journal's durable sink (the WAL)
	// through the shard-level barrier; a no-op without one.
	syncJournal() error
	// replayDelta applies recovered WAL frames onto the store (warm
	// restart); the store must have auto-compaction disabled first.
	replayDelta(hdr persist.DeltaHeader, frames [][]byte) (int, error)
	// releaseFollower detaches the follower's store for promotion,
	// returning the cursor it had converged to. Errors on non-follower
	// backends.
	releaseFollower() (epoch, seq uint64, err error)
	topo() shard.Stats
	// mode is the store's serving mode as data: the per-query options it
	// supports, at their built values.
	mode() core.QueryOpts
	maxWorkers() int
	cost() core.CostModel
	setCost(c core.CostModel) error
	enableCache(entries int) error
}

// followerAPI is the type-erased slice of replica.Follower the server
// needs: the status endpoint and the /stats convergence counters.
type followerAPI interface {
	ServeStatus(w http.ResponseWriter, r *http.Request)
	Cursor() (epoch, seq uint64)
	Rehydrates() int64
	Applied() int64
}

// server wires a backend to the HTTP API plus serving telemetry.
type server struct {
	cfg        config
	be         backend
	loadedFrom string // snapshot path or source URL the index booted from, if any
	// Replication wiring. Writers carry log + source (every mutation is
	// journaled and served to replicas) and, with -waldir, wal (the
	// log's durable spill); -hydrate URL replicas carry follower; any
	// -hydrate mode sets readOnly, which turns the mutating endpoints
	// into 403s. stopFollower cancels the tail loop. POST /promote
	// rewrites this whole block at runtime — flipping a follower into a
	// writer — so every access from a handler goes through roleMu:
	// handlers take the read lock (via the repl* helpers), promotion
	// takes the write lock.
	roleMu       sync.RWMutex
	log          *replica.Log
	source       *replica.Source
	follower     followerAPI
	wal          *replica.WAL
	readOnly     bool
	stopFollower context.CancelFunc
	// recalWanted remembers the -recalibrate flag before the follower
	// override forced it off, so a promotion can re-enable the drift
	// loop the operator asked for.
	recalWanted string
	lat         *stats.Recorder // per-query wall latency, microseconds
	start       time.Time
	queries     atomic.Int64 // queries answered (batch members count)
	lshAns      atomic.Int64 // shard answers via LSH-based search
	linAns      atomic.Int64 // shard answers via linear scan
	// Mode counters (zero on classic backends): queries answered in the
	// serving mode — through the probe path, or with the covering
	// guarantee — how many of them carried a per-request override, and on
	// multi-probe backends the summed T they used.
	modeQueries   atomic.Int64
	modeOverrides atomic.Int64
	probesUsed    atomic.Int64
	// reg is the /metrics registry, metrics the query-path bundle
	// (strategy counters, latency histograms, drift monitor) every
	// answered query is folded into. sampled counts answered queries for
	// the -trace-sample access log.
	reg     *obs.Registry
	metrics *obs.ServerMetrics
	sampled atomic.Int64
	// recal is the drift-loop actor (nil with -recalibrate=off): it
	// refits α/β from the drift windows when time_ratio leaves the dead
	// band, and backs POST /recalibrate. recalTick paces the piggybacked
	// auto check to every recalEvery answered queries.
	recal     *obs.Recalibrator
	recalTick atomic.Int64
}

// recalEvery is how many answered queries pass between piggybacked
// auto-recalibration checks; the check itself is a couple of window
// snapshots, so this only bounds Stats() traffic.
const recalEvery = 64

// replState is one coherent snapshot of the promotion-mutable
// replication block. Handlers grab it once per request via repl() and
// act on the copy, so a concurrent promotion can never hand them half
// of the old role and half of the new.
type replState struct {
	log      *replica.Log
	source   *replica.Source
	follower followerAPI
	wal      *replica.WAL
	readOnly bool
	recal    *obs.Recalibrator
}

func (s *server) repl() replState {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return replState{log: s.log, source: s.source, follower: s.follower,
		wal: s.wal, readOnly: s.readOnly, recal: s.recal}
}

func newServer(cfg config) (*server, error) {
	if cfg.shards < 1 {
		return nil, fmt.Errorf("shards = %d, want >= 1", cfg.shards)
	}
	if cfg.dim < 1 {
		return nil, fmt.Errorf("dim = %d, want >= 1", cfg.dim)
	}
	if cfg.n < cfg.shards {
		return nil, fmt.Errorf("n = %d smaller than %d shards", cfg.n, cfg.shards)
	}
	if cfg.window < 1 {
		return nil, fmt.Errorf("latwindow = %d, want >= 1", cfg.window)
	}
	if cfg.maxBody < 1 {
		return nil, fmt.Errorf("maxbody = %d, want >= 1", cfg.maxBody)
	}
	if cfg.compactThresh <= 0 {
		return nil, fmt.Errorf("compactthreshold = %v, want > 0 (>= 1 disables)", cfg.compactThresh)
	}
	if cfg.probes < 0 {
		return nil, fmt.Errorf("probes = %d, want >= 0", cfg.probes)
	}
	if cfg.probes > 0 && cfg.metric != "l2" {
		return nil, fmt.Errorf("multi-probe serving (-probes) supports -metric l2 only, got %q", cfg.metric)
	}
	if cfg.tables < 0 {
		return nil, fmt.Errorf("tables = %d, want >= 0", cfg.tables)
	}
	if cfg.coverRadius < 0 || cfg.coverRadius > covering.MaxRadius {
		return nil, fmt.Errorf("radius = %d, want in [0, %d]", cfg.coverRadius, covering.MaxRadius)
	}
	if cfg.coverRadius > 0 && cfg.metric != "hamming" {
		return nil, fmt.Errorf("covering serving (-radius) supports -metric hamming only, got %q", cfg.metric)
	}
	if cfg.coverRadius > 0 && cfg.probes > 0 {
		return nil, fmt.Errorf("-radius (covering) and -probes (multi-probe) are mutually exclusive serving modes")
	}
	if cfg.coverRadius > 0 && cfg.coverRadius >= cfg.dim {
		return nil, fmt.Errorf("radius = %d, want < dim %d", cfg.coverRadius, cfg.dim)
	}
	if cfg.traceSample < 0 {
		return nil, fmt.Errorf("trace-sample = %d, want >= 0 (0 disables)", cfg.traceSample)
	}
	if cfg.recalibrate != "off" && cfg.recalibrate != "auto" {
		return nil, fmt.Errorf("recalibrate = %q, want off or auto", cfg.recalibrate)
	}
	if cfg.cacheSize < 0 {
		return nil, fmt.Errorf("cache = %d, want >= 0 (0 disables)", cfg.cacheSize)
	}
	quant, err := hybridlsh.ParseQuantMode(cfg.quant)
	if err != nil {
		return nil, fmt.Errorf("quant = %q, want off or sq8", cfg.quant)
	}
	if quant != hybridlsh.QuantOff && cfg.metric != "l2" {
		return nil, fmt.Errorf("quant = %q applies to -metric l2 only", cfg.quant)
	}
	if cfg.logCap < 0 {
		return nil, fmt.Errorf("deltalog = %d, want >= 0 (0 = default %d)", cfg.logCap, replica.DefaultLogCap)
	}
	switch cfg.fsync {
	case replica.FsyncAlways, replica.FsyncInterval, replica.FsyncOff:
	default:
		return nil, fmt.Errorf("fsync = %q, want %s, %s or %s", cfg.fsync, replica.FsyncAlways, replica.FsyncInterval, replica.FsyncOff)
	}
	if cfg.walSeg < 0 {
		return nil, fmt.Errorf("walseg = %d, want >= 0 (0 = default %d)", cfg.walSeg, int64(replica.DefaultSegmentBytes))
	}
	followURL := strings.HasPrefix(cfg.hydrate, "http://") || strings.HasPrefix(cfg.hydrate, "https://")
	if cfg.waldir != "" && cfg.hydrate != "" && !followURL {
		return nil, errors.New("-waldir is unsupported on a static (-hydrate path) replica: it never writes and cannot be promoted")
	}
	recalWanted := cfg.recalibrate
	if cfg.hydrate != "" {
		if cfg.snapshot != "" {
			return nil, errors.New("-hydrate and -snapshot are mutually exclusive: replicas never write snapshots")
		}
		// Replicas must answer id-identically to their writer, and a local
		// cost-model refit could flip an LSH/linear strategy choice (the
		// two strategies report different id sets on the margin). Refits
		// are not journaled, so they are simply disabled on replicas; a
		// writer refit reaches replicas via the next snapshot epoch.
		cfg.recalibrate = "off"
	}
	if followURL && cfg.cacheSize > 0 {
		return nil, errors.New("-cache is unsupported with -hydrate URL: re-hydration swaps the store out from under the cache")
	}
	loadedFrom := ""
	readOnly := false
	var fol followerAPI
	var stopFollower context.CancelFunc
	var be backend
	switch {
	case followURL:
		be, fol, stopFollower, err = hydrateFollower(&cfg)
		if err != nil {
			return nil, err
		}
		readOnly = true
		loadedFrom = cfg.hydrate
	case cfg.hydrate != "":
		// Static replica from a snapshot file. Unlike -snapshot, the file
		// is the entire dataset, so a missing file is an error rather than
		// a synthetic-build fallback.
		be, err = loadBackend(&cfg, cfg.hydrate)
		if err != nil {
			return nil, err
		}
		if be == nil {
			return nil, fmt.Errorf("hydrate: snapshot %s does not exist", cfg.hydrate)
		}
		readOnly = true
		loadedFrom = cfg.hydrate
	default:
		be, err = loadBackend(&cfg, cfg.snapshot)
		if err != nil {
			return nil, err
		}
	}
	if !readOnly && be != nil {
		loadedFrom = cfg.snapshot
	}
	if !readOnly && be == nil {
		opts := []hybridlsh.Option{hybridlsh.WithSeed(cfg.seed), hybridlsh.WithShards(cfg.shards), hybridlsh.WithQuant(quant)}
		if cfg.tables > 0 {
			opts = append(opts, hybridlsh.WithTables(cfg.tables))
		}
		switch {
		case cfg.metric == "l2" && cfg.probes > 0:
			ix, err := hybridlsh.NewShardedMultiProbeL2Index(seedDense(cfg.n, cfg.dim, cfg.seed), cfg.radius,
				append(opts, hybridlsh.WithProbes(cfg.probes))...)
			if err != nil {
				return nil, err
			}
			be = denseKind.engine(cfg.dim, ix.Sharded)
		case cfg.metric == "l2":
			ix, err := hybridlsh.NewShardedL2Index(seedDense(cfg.n, cfg.dim, cfg.seed), cfg.radius, opts...)
			if err != nil {
				return nil, err
			}
			be = denseKind.engine(cfg.dim, ix.Sharded)
		case cfg.metric == "hamming" && cfg.coverRadius > 0:
			// Covering mode ignores -tables: the table count is forced to
			// 2^(r+1)−1 by the radius.
			ix, err := hybridlsh.NewShardedCoveringHammingIndex(seedBinary(cfg.n, cfg.dim, cfg.seed),
				hybridlsh.WithRadius(cfg.coverRadius), hybridlsh.WithSeed(cfg.seed), hybridlsh.WithShards(cfg.shards))
			if err != nil {
				return nil, err
			}
			be = binaryKind.engine(cfg.dim, ix.Sharded)
		case cfg.metric == "hamming":
			ix, err := hybridlsh.NewShardedHammingIndex(seedBinary(cfg.n, cfg.dim, cfg.seed), cfg.radius, opts...)
			if err != nil {
				return nil, err
			}
			be = binaryKind.engine(cfg.dim, ix.Sharded)
		default:
			return nil, fmt.Errorf("unknown metric %q (want l2 or hamming)", cfg.metric)
		}
	}
	var dlog *replica.Log
	var source *replica.Source
	var wal *replica.WAL
	if !readOnly {
		// Every writer is a replication source: mutations are journaled as
		// delta frames, and GET /snapshot + GET /delta serve hydration and
		// tailing. The epoch is this process incarnation — without a WAL,
		// a restart gets a fresh epoch, forcing replicas back through the
		// snapshot (the in-memory log died with the old process). With
		// -waldir the log survives: the recovered epoch and cursor win, so
		// a warm-restarted writer resumes exactly where the crash cut it
		// off and followers keep tailing without a re-hydrate.
		hdr := persist.DeltaHeader{
			Epoch:  uint64(time.Now().UnixNano()),
			Metric: cfg.metric,
			Dim:    cfg.dim,
		}
		if cfg.waldir != "" {
			w, rec, err := replica.OpenWAL(cfg.waldir, hdr, replica.WALOptions{
				SegmentBytes: cfg.walSeg, Fsync: cfg.fsync,
			})
			if err != nil {
				return nil, fmt.Errorf("waldir %s: %w", cfg.waldir, err)
			}
			if rec.FirstSeq > 1 && loadedFrom == "" {
				// Snapshot-driven retention truncated the prefix [1,FirstSeq);
				// replaying the suffix onto a synthetic base would silently
				// drop those mutations.
				w.Close()
				return nil, fmt.Errorf("waldir %s starts at seq %d: the truncated prefix lives in a snapshot, boot with -snapshot pointing at it", cfg.waldir, rec.FirstSeq)
			}
			hdr.Epoch = rec.Epoch // disk wins: followers key on the epoch
			if len(rec.Frames) > 0 {
				// Replay exactly as a follower would: auto-compaction off, so
				// journaled compactions land as recorded, never on this
				// boot's own clock. (A snapshot base may already cover a
				// prefix of the frames; replay absorbs the overlap
				// idempotently, same as hydration.)
				be.autoCompact(1)
				applied, rerr := be.replayDelta(hdr, rec.Frames)
				if rerr != nil {
					w.Close()
					return nil, fmt.Errorf("waldir %s: replaying frame %d: %w", cfg.waldir, rec.FirstSeq+uint64(applied), rerr)
				}
			}
			if rec.TruncatedBytes > 0 || rec.DroppedSegments > 0 {
				log.Printf("hybridserve: wal recovery cut %d torn tail bytes and dropped %d segments", rec.TruncatedBytes, rec.DroppedSegments)
			}
			if rec.LastSeq >= rec.FirstSeq {
				log.Printf("hybridserve: wal %s replayed %d frames, resuming epoch %d at seq %d", cfg.waldir, len(rec.Frames), rec.Epoch, rec.LastSeq)
			}
			dlog = replica.RestoreLog(hdr, cfg.logCap, rec.FirstSeq, rec.Frames)
			dlog.AttachWAL(w)
			wal = w
		} else {
			dlog = replica.NewLog(hdr, cfg.logCap)
		}
	}
	if !readOnly {
		// Replicas never self-compact: compactions replay exactly as the
		// writer journaled them (Hydrate already disabled the auto clock),
		// and a static replica takes no mutations at all.
		be.autoCompact(cfg.compactThresh)
	}
	if cfg.cacheSize > 0 {
		// Both boot paths — synthetic build and snapshot load — pass
		// through here, so a warm restart keeps its cache too.
		if err := be.enableCache(cfg.cacheSize); err != nil {
			return nil, err
		}
	}
	if !readOnly {
		// Installed after any WAL replay, so replayed frames are never
		// re-journaled (replay methods do not journal anyway; this keeps
		// the ordering obvious).
		be.installJournal(dlog)
		source = &replica.Source{Log: dlog, WriteSnapshot: be.streamSnapshot}
	}
	srv := &server{cfg: cfg, be: be, loadedFrom: loadedFrom,
		log: dlog, source: source, follower: fol, wal: wal, readOnly: readOnly,
		stopFollower: stopFollower, recalWanted: recalWanted,
		lat: stats.NewRecorder(cfg.window), start: time.Now()}
	srv.reg = obs.NewRegistry()
	srv.metrics = obs.NewServerMetrics(srv.reg, cfg.window)
	obs.RegisterTopology(srv.reg, be.topo)
	obs.RegisterLatencyRecorder(srv.reg, srv.lat)
	if cfg.recalibrate == "auto" {
		srv.recal = obs.NewRecalibrator(srv.reg, srv.metrics.Drift, be.cost, be.setCost,
			obs.RecalibratorConfig{}, log.Printf)
	}
	srv.reg.NewGaugeVec("hybridlsh_info",
		"Serving configuration (always 1); the labels carry the mode.", "metric", "mode").
		With(cfg.metric, be.mode().Mode()).Set(1)
	// Journaling health: a non-zero error count means acknowledged
	// mutations stopped reaching the delta log (and so replicas and the
	// WAL) — the one replication failure that is otherwise silent. Read
	// through repl() because promotion swaps the log in at runtime.
	srv.reg.NewCounterFunc("hybridlsh_deltalog_errors_total",
		"Delta-log journaling failures (encode or WAL append); non-zero means replicas may be missing acknowledged mutations.",
		func() float64 {
			if l := srv.repl().log; l != nil {
				return float64(l.Errors())
			}
			return 0
		})
	srv.reg.NewGaugeFunc("hybridlsh_wal_segments",
		"Segment files in the delta-log WAL directory (0 without -waldir).",
		func() float64 {
			if w := srv.repl().wal; w != nil {
				return float64(w.Stats().Segments)
			}
			return 0
		})
	srv.reg.NewGaugeFunc("hybridlsh_wal_last_seq",
		"Highest sequence number durably appended to the WAL (0 without -waldir).",
		func() float64 {
			if w := srv.repl().wal; w != nil {
				return float64(w.Stats().LastSeq)
			}
			return 0
		})
	return srv, nil
}

// reportRadius is the effective reporting radius: the float the classic
// and multi-probe indexes were built for, or the integer covering radius
// in covering mode (where the -r flag plays no role). /stats reports
// this next to the mode-specific cover_radius rather than overwriting
// one with the other.
func (s *server) reportRadius() float64 {
	if s.cfg.coverRadius > 0 {
		return float64(s.cfg.coverRadius)
	}
	return s.cfg.radius
}

// pointKind binds one -metric to its point type: the persist metric
// identifier, the exact cache-key encoding and the JSON point parser.
type pointKind[P any] struct {
	metric string
	key    func(P) string
	parse  func(dim int) func(json.RawMessage) (P, error)
}

var (
	denseKind  = pointKind[hybridlsh.Dense]{persist.MetricL2, hybridlsh.Dense.CacheKey, parseDense}
	binaryKind = pointKind[hybridlsh.Binary]{persist.MetricHamming, hybridlsh.Binary.CacheKey, parseBinary}
)

// engine builds the kind's backend over sh (nil for a follower, whose
// store arrives by hydration).
func (k pointKind[P]) engine(dim int, sh *shard.Sharded[P]) *engine[P] {
	return &engine[P]{sh: sh, metric: k.metric, cacheKey: k.key, parse: k.parse(dim)}
}

// adopt makes a decoded snapshot authoritative for dim, radius, shard
// count and serving mode, so request parsing and /stats reflect the
// loaded index. Unset mode flags demand nothing — the snapshot decides —
// but a set one the file contradicts (-probes over a snapshot that is not
// multi-probe, -radius over one that is not covering) is refused with the
// typed persist mode error rather than silently served in another mode.
func (cfg *config) adopt(m persist.Meta) error {
	if cfg.probes > 0 || cfg.coverRadius > 0 {
		if err := m.RequireMode(cfg.probes > 0, cfg.coverRadius > 0); err != nil {
			return err
		}
	}
	cfg.dim, cfg.radius, cfg.shards = m.Dim, m.Radius, m.Shards
	cfg.probes, cfg.coverRadius = m.Probes, m.CoverRadius
	return nil
}

// loadBackend loads the snapshot at path when one is named and the file
// exists, returning (nil, nil) otherwise so the caller falls back to
// the synthetic build. The -metric flag must match the file — the reader
// rejects a snapshot of a different metric — and the file decides the
// serving mode in the one streaming pass that decodes it (see adopt).
func loadBackend(cfg *config, path string) (backend, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var be backend
	switch cfg.metric {
	case "l2":
		be, err = denseKind.load(cfg, br)
	case "hamming":
		be, err = binaryKind.load(cfg, br)
	default:
		return nil, fmt.Errorf("unknown metric %q (want l2 or hamming)", cfg.metric)
	}
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return be, nil
}

func (k pointKind[P]) load(cfg *config, r io.Reader) (backend, error) {
	sh, m, err := persist.ReadSharded[P](r, k.metric)
	if err == nil {
		err = cfg.adopt(m)
	}
	if err != nil {
		return nil, err
	}
	return k.engine(m.Dim, sh), nil
}

// followerPollEvery is the delta-tail poll interval on -hydrate URL
// replicas; steady-state convergence lag is bounded by roughly one poll
// plus the frames' apply time.
const followerPollEvery = 100 * time.Millisecond

// hydrateFollower boots a -hydrate URL replica: hydrate synchronously
// (fail fast — a replica that cannot reach its source should not take
// traffic), adopt the snapshot's geometry, then tail the delta log in
// the background for as long as the process lives. The returned cancel
// stops the tail loop (tests need that; production lets it die with the
// process).
func hydrateFollower(cfg *config) (backend, followerAPI, context.CancelFunc, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var be backend
	var fol followerAPI
	var err error
	switch cfg.metric {
	case "l2":
		be, fol, err = denseKind.hydrate(ctx, cfg)
	case "hamming":
		be, fol, err = binaryKind.hydrate(ctx, cfg)
	default:
		err = fmt.Errorf("unknown metric %q (want l2 or hamming)", cfg.metric)
	}
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	return be, fol, cancel, nil
}

func (k pointKind[P]) hydrate(ctx context.Context, cfg *config) (backend, followerAPI, error) {
	hctx, hcancel := context.WithTimeout(ctx, time.Minute)
	defer hcancel()
	f := replica.NewFollower[P](cfg.hydrate, nil, k.metric)
	err := f.Hydrate(hctx)
	if err == nil {
		err = cfg.adopt(f.Meta())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("hydrate %s: %w", cfg.hydrate, err)
	}
	be := k.engine(cfg.dim, nil)
	be.follower = f
	go f.Run(ctx, followerPollEvery)
	return be, f, nil
}

// seedDense generates n clustered points in [0,1)^dim (64 Gaussian
// clusters, σ = 0.02) so fresh servers answer non-trivial queries. The
// clusters are tight relative to typical inter-cluster distances, so a
// radius between the two scales yields clean, high-recall answers.
func seedDense(n, dim int, seed uint64) []hybridlsh.Dense {
	r := rng.New(seed)
	nc := 64
	if nc > n {
		nc = n
	}
	centers := make([]hybridlsh.Dense, nc)
	for i := range centers {
		c := make(hybridlsh.Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	points := make([]hybridlsh.Dense, n)
	for i := range points {
		c := centers[i%nc]
		p := make(hybridlsh.Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.02)
		}
		points[i] = p
	}
	return points
}

// seedBinary generates n points as 64 random prototype codes with up to
// dim/16 bits flipped each.
func seedBinary(n, dim int, seed uint64) []hybridlsh.Binary {
	r := rng.New(seed)
	nc := 64
	if nc > n {
		nc = n
	}
	protos := make([]hybridlsh.Binary, nc)
	for i := range protos {
		b := hybridlsh.NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	flips := dim / 16
	if flips < 1 {
		flips = 1
	}
	points := make([]hybridlsh.Binary, n)
	for i := range points {
		b := protos[i%nc].Clone()
		for f := 0; f < flips; f++ {
			b.FlipBit(r.Intn(dim))
		}
		points[i] = b
	}
	return points
}

func parseDense(dim int) func(json.RawMessage) (hybridlsh.Dense, error) {
	return func(raw json.RawMessage) (hybridlsh.Dense, error) {
		var vals []float64
		if err := json.Unmarshal(raw, &vals); err != nil {
			return nil, fmt.Errorf("point must be a number array: %w", err)
		}
		if len(vals) != dim {
			return nil, fmt.Errorf("point has %d dims, index expects %d", len(vals), dim)
		}
		p := make(hybridlsh.Dense, dim)
		for i, v := range vals {
			p[i] = float32(v)
		}
		return p, nil
	}
}

func parseBinary(dim int) func(json.RawMessage) (hybridlsh.Binary, error) {
	return func(raw json.RawMessage) (hybridlsh.Binary, error) {
		var bits []int
		if err := json.Unmarshal(raw, &bits); err != nil {
			return hybridlsh.Binary{}, fmt.Errorf("point must be a 0/1 array: %w", err)
		}
		if len(bits) != dim {
			return hybridlsh.Binary{}, fmt.Errorf("point has %d bits, index expects %d", len(bits), dim)
		}
		b := hybridlsh.NewBinaryVector(dim)
		for i, v := range bits {
			switch v {
			case 0:
			case 1:
				b.SetBit(i, true)
			default:
				return hybridlsh.Binary{}, fmt.Errorf("bit %d is %d, want 0 or 1", i, v)
			}
		}
		return b, nil
	}
}

// queryResult is the wire form of one answered query. Probes is set
// only on multi-probe backends (the effective T the query used) and
// Radius only on covering backends (the effective reporting radius);
// override records whether the request supplied its own T or radius.
type queryResult struct {
	IDs          []int32         `json:"ids"`
	LSHShards    int             `json:"lsh_shards"`
	LinearShards int             `json:"linear_shards"`
	Collisions   int             `json:"collisions"`
	Candidates   int             `json:"candidates"`
	WallUS       float64         `json:"wall_us"`
	Cached       bool            `json:"cached,omitempty"`
	Probes       *int            `json:"probes,omitempty"`
	Radius       *int            `json:"radius,omitempty"`
	Trace        *obs.QueryTrace `json:"trace,omitempty"`
	override     bool
	stats        shard.QueryStats // full per-shard stats, for metrics and traces
}

// engine adapts one concrete Sharded[P] to the JSON backend interface.
// The serving mode is not engine state: it is what the store's Defaults
// say (multi-probe with its T, covering with its radius, or classic).
// follower is set on -hydrate URL replicas: the store then lives inside
// the follower (re-hydration swaps it atomically), so every access goes
// through store() rather than the fixed sh field.
type engine[P any] struct {
	sh       *shard.Sharded[P]
	follower *replica.Follower[P]
	metric   string // persist metric identifier for snapshots
	parse    func(json.RawMessage) (P, error)
	cacheKey func(P) string // exact query encoding for -cache (see shard.EnableCache)
	// pinned is set by releaseFollower: once a follower is promoted its
	// store stops moving (no more re-hydrations), so it is pinned here
	// and wins over the follower indirection.
	pinned atomic.Pointer[shard.Sharded[P]]
}

// store returns the serving index: the fixed one for writers and
// path-hydrated replicas, the promotion-pinned one on an ex-follower,
// the follower's current hydration otherwise.
func (e *engine[P]) store() *shard.Sharded[P] {
	if p := e.pinned.Load(); p != nil {
		return p
	}
	if e.follower != nil {
		return e.follower.Store()
	}
	return e.sh
}

// resolve maps a request's optional "probes" and "radius" fields to the
// query options for a store serving mode: an absent field keeps the
// built value; probes are validated and clamped to maxProbeOverride;
// a radius must lie in [0, built radius] — larger values are rejected,
// never clamped, because the covering tables only guarantee pairs within
// the built radius. A field the mode does not support is rejected rather
// than silently ignored.
func resolve(mode core.QueryOpts, probes, radius *int) (core.QueryOpts, error) {
	var o core.QueryOpts
	if probes != nil {
		switch {
		case !mode.Probes.Set:
			return o, errors.New(`"probes" is only supported when the server runs a multi-probe index (start with -probes)`)
		case *probes < 0:
			return o, fmt.Errorf("probes = %d, want >= 0", *probes)
		}
		o.Probes = core.Some(min(*probes, maxProbeOverride))
	}
	if radius != nil {
		switch {
		case !mode.Radius.Set:
			return o, errors.New(`"radius" is only supported when the server runs a covering index (start with -radius)`)
		case *radius < 0:
			return o, fmt.Errorf("radius = %d, want >= 0", *radius)
		case *radius > mode.Radius.N:
			return o, fmt.Errorf("radius = %d exceeds the built covering radius %d (the no-false-negatives guarantee stops there)", *radius, mode.Radius.N)
		}
		o.Radius = core.Some(*radius)
	}
	return o, nil
}

// toResult renders one answer given under the options o by a store
// serving mode: multi-probe answers carry the effective T, covering ones
// the effective radius.
func toResult(ids []int32, st shard.QueryStats, mode, o core.QueryOpts) *queryResult {
	if ids == nil {
		ids = []int32{} // marshal as [] rather than null
	}
	res := &queryResult{
		IDs:          ids,
		LSHShards:    st.LSHShards,
		LinearShards: st.LinearShards,
		Collisions:   st.Collisions,
		Candidates:   st.Candidates,
		WallUS:       float64(st.WallTime.Microseconds()),
		Cached:       st.CacheHit,
		stats:        st,
	}
	switch {
	case mode.Radius.Set:
		r := o.Radius.Or(mode.Radius.N)
		res.Radius, res.override = &r, o.Radius.Set
	case mode.Probes.Set:
		t := o.Probes.Or(mode.Probes.N)
		res.Probes, res.override = &t, o.Probes.Set
	}
	return res
}

func (e *engine[P]) query(raw json.RawMessage, probes, radius *int) (*queryResult, error) {
	sh := e.store()
	mode := sh.Defaults()
	o, err := resolve(mode, probes, radius)
	if err != nil {
		return nil, err
	}
	p, err := e.parse(raw)
	if err != nil {
		return nil, err
	}
	ids, st, err := sh.QueryWith(p, o)
	if err != nil {
		return nil, err
	}
	return toResult(ids, st, mode, o), nil
}

func (e *engine[P]) batch(raw []json.RawMessage, workers int, probes, radius *int) ([]*queryResult, error) {
	sh := e.store()
	mode := sh.Defaults()
	o, err := resolve(mode, probes, radius)
	if err != nil {
		return nil, err
	}
	pts := make([]P, len(raw))
	for i, r := range raw {
		p, err := e.parse(r)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = p
	}
	results, err := sh.QueryBatchWith(pts, workers, o)
	if err != nil {
		return nil, err
	}
	out := make([]*queryResult, len(results))
	for i, r := range results {
		out[i] = toResult(r.IDs, r.Stats, mode, o)
	}
	return out, nil
}

func (e *engine[P]) appendPoints(raw []json.RawMessage) ([]int32, error) {
	pts := make([]P, len(raw))
	for i, r := range raw {
		p, err := e.parse(r)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = p
	}
	return e.store().Append(pts)
}

func (e *engine[P]) remove(ids []int32) int { return e.store().Delete(ids) }

// compact drops tombstoned points from one shard's buckets (every
// shard's for shardIdx < 0); queries keep flowing during the rewrite.
func (e *engine[P]) compact(shardIdx int) (int, error) {
	if shardIdx < 0 {
		return e.store().CompactAll()
	}
	return e.store().Compact(shardIdx)
}

func (e *engine[P]) autoCompact(threshold float64) { e.store().SetAutoCompact(threshold) }

// snapshot persists the index to path atomically (temp file + rename).
// Appends are blocked while the consistent view is serialized; queries
// keep flowing.
func (e *engine[P]) snapshot(path string) (int64, error) {
	return persist.WriteFileAtomic(path, e.streamSnapshot)
}

// streamSnapshot streams the index snapshot to w. The file snapshot
// and the replication source's GET /snapshot body share this path, so a
// replica hydrated over HTTP decodes exactly what a warm restart would
// read from disk.
func (e *engine[P]) streamSnapshot(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	n, err := persist.WriteSharded(bw, e.metric, e.store())
	if err == nil {
		err = bw.Flush()
	}
	return n, err
}

// installJournal wires the writer's delta log into the store: every
// Append/Delete/Compact is recorded as one hybridlsh-delta/v1 frame in
// commit order. Called once at boot, before the listener takes traffic.
func (e *engine[P]) installJournal(l *replica.Log) {
	e.store().SetJournal(replica.NewRecorder[P](l))
}

// syncJournal flushes the journal's WAL through the shard-level barrier
// (appends in flight finish journaling first); a no-op without a WAL.
func (e *engine[P]) syncJournal() error { return e.store().SyncJournal() }

// replayDelta applies recovered WAL frames onto the store, returning
// how many applied before any error.
func (e *engine[P]) replayDelta(hdr persist.DeltaHeader, frames [][]byte) (int, error) {
	return replica.ReplayRaw(e.store(), hdr, frames)
}

// releaseFollower detaches the follower's converged store for promotion
// and pins it as this engine's serving index.
func (e *engine[P]) releaseFollower() (epoch, seq uint64, err error) {
	if e.follower == nil {
		return 0, 0, errors.New("not a tailing follower")
	}
	sh, epoch, seq, err := e.follower.Release()
	if err != nil {
		return 0, 0, err
	}
	e.pinned.Store(sh)
	return epoch, seq, nil
}

func (e *engine[P]) maxWorkers() int { return e.store().DefaultBatchWorkers() }

func (e *engine[P]) topo() shard.Stats { return e.store().Stats() }

func (e *engine[P]) mode() core.QueryOpts { return e.store().Defaults() }

func (e *engine[P]) cost() core.CostModel { return e.store().Cost() }

// setCost swaps the cost model on every shard atomically; queries keep
// flowing through the swap (see shard.Sharded.SetCost).
func (e *engine[P]) setCost(c core.CostModel) error { return e.store().SetCost(c) }

// enableCache installs the result cache; called during boot, before the
// listener starts taking traffic.
func (e *engine[P]) enableCache(entries int) error {
	return e.store().EnableCache(entries, e.cacheKey)
}

// record folds one answered query into the serving telemetry.
func (s *server) record(r *queryResult) {
	s.queries.Add(1)
	s.lshAns.Add(int64(r.LSHShards))
	s.linAns.Add(int64(r.LinearShards))
	s.lat.Observe(r.WallUS)
	if r.Probes != nil || r.Radius != nil {
		s.modeQueries.Add(1)
		if r.override {
			s.modeOverrides.Add(1)
		}
	}
	if r.Probes != nil {
		s.probesUsed.Add(int64(*r.Probes))
	}
	s.metrics.RecordQuery(r.stats)
	// Piggyback the drift-loop maintenance on the record path: note
	// compactions (resetting stale windows) and run the dead-band check.
	// Cache hits carry no per-shard stats, so they never feed the drift
	// windows the refitter reads — only genuine fan-out timings do.
	if s.recalTick.Add(1)%recalEvery == 0 {
		if rc := s.repl().recal; rc != nil {
			rc.NoteCompactions(s.be.topo().CompactionsTotal)
			rc.Check()
		}
	}
	if n := s.cfg.traceSample; n > 0 && s.sampled.Add(1)%int64(n) == 0 {
		if b, err := json.Marshal(s.traceOf(r)); err == nil {
			log.Printf("hybridserve: trace %s", b)
		}
	}
}

// traceOf assembles the full decision trace of one answered query.
func (s *server) traceOf(r *queryResult) *obs.QueryTrace {
	tr := obs.NewQueryTrace(r.stats, s.be.cost())
	tr.Probes = r.Probes
	tr.Radius = r.Radius
	return tr
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	// Every role-dependent route is mounted unconditionally and gated at
	// request time, because POST /promote changes the role while the
	// listener is serving: a follower answers the mutating endpoints with
	// a clear 403 (rather than a generic 404) until promotion flips it
	// into a writer, after which the same routes start mutating — no mux
	// rebuild, the listener never blinks.
	mux.HandleFunc("POST /append", s.mutating(s.handleAppend))
	mux.HandleFunc("POST /delete", s.mutating(s.handleDelete))
	mux.HandleFunc("POST /compact", s.mutating(s.handleCompact))
	mux.HandleFunc("POST /recalibrate", s.mutating(s.handleRecalibrate))
	mux.HandleFunc("POST /snapshot", s.mutating(s.handleSnapshot))
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("GET /snapshot", s.handleReplSnapshot)
	mux.HandleFunc("GET /delta", s.handleReplDelta)
	mux.HandleFunc("GET /replica/status", s.handleReplStatus)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg)
	// MaxBytesHandler wraps every request body in http.MaxBytesReader, so
	// a client cannot stream an unbounded body into the JSON decoders;
	// decode errors from the cap surface as 413 via statusFor.
	return http.MaxBytesHandler(mux, s.cfg.maxBody)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("hybridserve: encoding response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// statusFor maps a decode error to its HTTP status: 413 when the -maxbody
// cap cut the body off, 400 for everything else.
func statusFor(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleReadOnly rejects mutations on a replica.
func (s *server) handleReadOnly(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusForbidden,
		fmt.Errorf("read-only replica: %s is only served by the writer (this server was started with -hydrate)", r.URL.Path))
}

// mutating gates a write endpoint on the current role: replicas take no
// direct writes (mutations flow through the writer and reach them via
// the delta log) until a promotion flips readOnly off.
func (s *server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.repl().readOnly {
			s.handleReadOnly(w, r)
			return
		}
		h(w, r)
	}
}

// handleReplSnapshot is GET /snapshot: only a writer streams hydration
// snapshots (a replica's copy may be mid-convergence).
func (s *server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.repl()
	if st.source == nil {
		writeErr(w, http.StatusNotFound, errors.New("not a writer: no snapshot feed (hydrate from the writer)"))
		return
	}
	st.source.ServeSnapshot(w, r)
}

// handleReplDelta is GET /delta: the writer's frame feed.
func (s *server) handleReplDelta(w http.ResponseWriter, r *http.Request) {
	st := s.repl()
	if st.source == nil {
		writeErr(w, http.StatusNotFound, errors.New("not a writer: no delta feed (tail the writer)"))
		return
	}
	st.source.ServeDelta(w, r)
}

// handleReplStatus is GET /replica/status, dispatched on the current
// role: the writer reports its log cursor, a tailing follower its
// convergence cursor, a static replica a pinned epoch-0 status.
func (s *server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	st := s.repl()
	switch {
	case st.source != nil:
		st.source.ServeStatus(w, r)
	case st.follower != nil:
		st.follower.ServeStatus(w, r)
	default:
		writeJSON(w, http.StatusOK, replica.StatusResponse{Format: persist.DeltaFormatName, Role: "static"})
	}
}

// handlePromote flips a tailing follower into the writer: the tail loop
// is stopped, the converged store released and pinned, and a fresh log
// (plus WAL, with -waldir) is started at a new epoch seeded from the
// replayed cursor — appends, compaction and (if the operator asked for
// it) recalibration come back to life. The old epoch's frames stay
// behind on the old writer; followers of the new writer re-hydrate onto
// the new epoch, which the router detects (see cmd/hybridrouter).
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.roleMu.Lock()
	defer s.roleMu.Unlock()
	if !s.readOnly {
		writeErr(w, http.StatusConflict, errors.New("already the writer"))
		return
	}
	if s.follower == nil {
		writeErr(w, http.StatusConflict, errors.New("static replica (-hydrate path): no delta cursor to promote from"))
		return
	}
	// Stop the tail loop before detaching the store, so no frame from the
	// old writer lands after the cursor is read; Release serializes with
	// any poll already in flight.
	s.stopFollower()
	oldEpoch, seq, err := s.be.releaseFollower()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	newEpoch := uint64(time.Now().UnixNano())
	if newEpoch <= oldEpoch {
		newEpoch = oldEpoch + 1 // clock skew: epochs must still advance
	}
	hdr := persist.DeltaHeader{Epoch: newEpoch, Metric: s.cfg.metric, Dim: s.cfg.dim}
	dlog := replica.RestoreLog(hdr, s.cfg.logCap, seq+1, nil)
	if s.cfg.waldir != "" {
		wl, rec, werr := replica.OpenWAL(s.cfg.waldir, hdr, replica.WALOptions{
			SegmentBytes: s.cfg.walSeg, Fsync: s.cfg.fsync, StartSeq: seq + 1,
		})
		if werr != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("waldir %s: %w", s.cfg.waldir, werr))
			return
		}
		if rec.Epoch != newEpoch || rec.LastSeq != seq {
			// The directory already holds another incarnation's segments;
			// mixing epochs in one WAL would make the next recovery resume
			// the wrong one.
			wl.Close()
			writeErr(w, http.StatusConflict, fmt.Errorf(
				"waldir %s holds epoch %d frames through seq %d: promotion needs an empty WAL directory", s.cfg.waldir, rec.Epoch, rec.LastSeq))
			return
		}
		dlog.AttachWAL(wl)
		s.wal = wl
	}
	s.be.installJournal(dlog)
	s.be.autoCompact(s.cfg.compactThresh)
	s.log = dlog
	s.source = &replica.Source{Log: dlog, WriteSnapshot: s.be.streamSnapshot}
	s.follower = nil
	s.readOnly = false
	if s.recalWanted == "auto" && s.recal == nil {
		s.recal = obs.NewRecalibrator(s.reg, s.metrics.Drift, s.be.cost, s.be.setCost,
			obs.RecalibratorConfig{}, log.Printf)
	}
	log.Printf("hybridserve: promoted to writer at epoch %d, resuming after seq %d (old epoch %d)", newEpoch, seq, oldEpoch)
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "epoch": newEpoch, "seq": seq})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.start).Seconds(),
	})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Point  json.RawMessage `json:"point"`
		Probes *int            `json:"probes"`
		Radius *int            `json:"radius"`
		Trace  bool            `json:"trace"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if len(req.Point) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New(`missing "point"`))
		return
	}
	res, err := s.be.query(req.Point, req.Probes, req.Radius)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.record(res)
	if req.Trace {
		res.Trace = s.traceOf(res)
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Points  []json.RawMessage `json:"points"`
		Workers int               `json:"workers"`
		Probes  *int              `json:"probes"`
		Radius  *int              `json:"radius"`
		Trace   bool              `json:"trace"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New(`missing "points"`))
		return
	}
	// Clamp client-controlled parallelism to the shard-aware ceiling the
	// workers=0 default uses, so one request can't oversubscribe the
	// machine.
	if max := s.be.maxWorkers(); req.Workers > max {
		req.Workers = max
	}
	if req.Workers < 0 {
		req.Workers = 0
	}
	results, err := s.be.batch(req.Points, req.Workers, req.Probes, req.Radius)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, res := range results {
		s.record(res)
		if req.Trace {
			res.Trace = s.traceOf(res)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if len(req.Points) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New(`missing "points"`))
		return
	}
	ids, err := s.be.appendPoints(req.Points)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ids": ids, "n": s.be.topo().Live})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs []int32 `json:"ids"`
	}
	if err := decode(r, &req); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	deleted := s.be.remove(req.IDs)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": deleted, "n": s.be.topo().Live})
}

// handleCompact drops tombstoned points out of the index buckets:
// {"shard": j} compacts one shard, an empty body compacts all of them.
// Queries keep flowing while the rewrite runs; only appends routed to
// the shard being compacted wait.
func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Shard *int `json:"shard"`
	}
	if err := decode(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, statusFor(err), err)
		return
	}
	shardIdx := -1
	if req.Shard != nil {
		if *req.Shard < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("shard = %d, want >= 0 (omit the field to compact all shards)", *req.Shard))
			return
		}
		shardIdx = *req.Shard
	}
	t0 := time.Now()
	removed, err := s.be.compact(shardIdx)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	topo := s.be.topo()
	log.Printf("hybridserve: compacted %d points in %v", removed, time.Since(t0).Round(time.Millisecond))
	writeJSON(w, http.StatusOK, map[string]any{
		"removed":           removed,
		"live":              topo.Live,
		"dead_in_buckets":   topo.DeadTotal,
		"compactions_total": topo.CompactionsTotal,
		"compact_ms":        float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// handleRecalibrate forces an immediate cost-model refit from the
// current drift windows, bypassing the auto policy's dead band and
// sample floor — the operator's "I know the machine changed" lever. It
// still needs evidence: both strategies must have been observed since
// the last window reset, and a refit that would produce a degenerate
// model is rejected (409) with the serving model left untouched.
// Disabled together with the auto policy by -recalibrate=off.
func (s *server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	rc := s.repl().recal
	if rc == nil {
		writeErr(w, http.StatusBadRequest, errors.New("recalibration disabled: start the server with -recalibrate=auto"))
		return
	}
	old, next, err := rc.Force()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	log.Printf("hybridserve: forced recalibration: alpha %.3f -> %.3f, beta %.3f -> %.3f", old.Alpha, next.Alpha, old.Beta, next.Beta)
	writeJSON(w, http.StatusOK, map[string]any{
		"old":          costJSON(old),
		"new":          costJSON(next),
		"refits_total": rc.Refits(),
	})
}

// costJSON renders a cost model for /stats and /recalibrate responses.
func costJSON(c core.CostModel) map[string]any {
	return map[string]any{
		"alpha_ns":        c.Alpha,
		"beta_ns":         c.Beta,
		"beta_over_alpha": c.BetaOverAlpha(),
	}
}

// handleSnapshot persists the index to the operator-configured
// -snapshot path. The path deliberately cannot come from the request:
// accepting one would hand every HTTP client an arbitrary-file-write
// primitive (the atomic rename overwrites whatever the path names).
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	path := s.cfg.snapshot
	if path == "" {
		writeErr(w, http.StatusBadRequest, errors.New("no snapshot path configured: start the server with -snapshot"))
		return
	}
	st := s.repl()
	// Read the covered cursor before serializing: the snapshot sees at
	// least every mutation journaled up to here, so WAL segments whose
	// frames all fall at or below it are redundant once the write lands.
	covered := uint64(0)
	if st.log != nil {
		covered = st.log.Seq()
	}
	t0 := time.Now()
	n, err := s.be.snapshot(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	walRemoved := 0
	if st.wal != nil {
		if serr := s.be.syncJournal(); serr != nil {
			log.Printf("hybridserve: wal sync before truncation: %v", serr)
		} else if walRemoved, err = st.wal.TruncateThrough(covered); err != nil {
			log.Printf("hybridserve: wal truncation: %v", err)
		}
	}
	log.Printf("hybridserve: wrote snapshot %s (%d bytes in %v)", path, n, time.Since(t0).Round(time.Millisecond))
	writeJSON(w, http.StatusOK, map[string]any{
		"path":                 path,
		"bytes":                n,
		"live":                 s.be.topo().Live,
		"write_ms":             float64(time.Since(t0).Microseconds()) / 1000,
		"wal_segments_removed": walRemoved,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	topo := s.be.topo()
	p := s.lat.Percentiles(0.50, 0.95, 0.99)
	multiprobe := map[string]any{"enabled": s.cfg.probes > 0}
	if s.cfg.probes > 0 {
		multiprobe["probes"] = s.cfg.probes
		multiprobe["probed_queries"] = s.modeQueries.Load()
		multiprobe["probes_used_total"] = s.probesUsed.Load()
		multiprobe["override_queries"] = s.modeOverrides.Load()
	}
	cover := map[string]any{"enabled": s.cfg.coverRadius > 0}
	if s.cfg.coverRadius > 0 {
		cover["radius"] = s.cfg.coverRadius
		cover["tables"] = covering.NumTables(s.cfg.coverRadius)
		cover["covered_queries"] = s.modeQueries.Load()
		cover["override_queries"] = s.modeOverrides.Load()
	}
	st := s.repl()
	recal := map[string]any{"enabled": st.recal != nil, "cost": costJSON(s.be.cost())}
	if st.recal != nil {
		recal["dead_band"] = st.recal.DeadBand()
		recal["min_samples"] = st.recal.MinSamples()
		recal["refits_total"] = st.recal.Refits()
	}
	cache := map[string]any{"enabled": topo.CacheEnabled}
	if topo.CacheEnabled {
		cache["capacity"] = topo.CacheCapacity
		cache["entries"] = topo.CacheEntries
		cache["hits"] = topo.CacheHits
		cache["misses"] = topo.CacheMisses
		cache["invalidations"] = topo.CacheInvalidations
	}
	repl := map[string]any{"read_only": st.readOnly}
	switch {
	case st.follower != nil:
		epoch, seq := st.follower.Cursor()
		repl["role"] = "follower"
		repl["source"] = s.cfg.hydrate
		repl["epoch"] = epoch
		repl["seq"] = seq
		repl["rehydrates"] = st.follower.Rehydrates()
		repl["frames_applied"] = st.follower.Applied()
	case st.source != nil:
		repl["role"] = "source"
		repl["epoch"] = st.log.Epoch()
		repl["seq"] = st.log.Seq()
		repl["journal_errors"] = st.log.Errors()
		jerr := ""
		if err := st.log.Err(); err != nil {
			jerr = err.Error()
		}
		repl["journal_error"] = jerr
		if st.wal != nil {
			repl["wal"] = st.wal.Stats()
		}
	default:
		repl["role"] = "static"
		repl["source"] = s.cfg.hydrate
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metric":       s.cfg.metric,
		"dim":          s.cfg.dim,
		"radius":       s.reportRadius(),
		"cover_radius": s.cfg.coverRadius,
		"snapshot":     s.cfg.snapshot,
		"warm_start":   s.loadedFrom != "",
		"uptime_sec":   time.Since(s.start).Seconds(),
		"shards":       topo.Shards,
		"shard_sizes":  topo.ShardSizes,
		"live":         topo.Live,
		"tombstones":   topo.Tombstones,
		"queries":      s.queries.Load(),
		"compaction": map[string]any{
			"threshold":       s.cfg.compactThresh,
			"per_shard":       topo.Compactions,
			"total":           topo.CompactionsTotal,
			"dead_in_buckets": topo.DeadInBuckets,
			"dead_total":      topo.DeadTotal,
		},
		"strategy": map[string]int64{
			"lsh_shard_answers":    s.lshAns.Load(),
			"linear_shard_answers": s.linAns.Load(),
		},
		"multiprobe":    multiprobe,
		"covering":      cover,
		"recalibration": recal,
		"cache":         cache,
		"replication":   repl,
		"store":         topo.Store,
		"drift":         s.metrics.Drift.Snapshot(),
		"latency_us": map[string]any{
			"p50":   p[0],
			"p95":   p[1],
			"p99":   p[2],
			"count": s.lat.Count(),
		},
	})
}

// shutdown runs after the request drain on graceful stop: flush the
// final metrics line, then sync and close the WAL so a clean exit never
// leaves an unflushed tail (crash recovery handles the unclean one).
func (s *server) shutdown() {
	s.logFinalMetrics()
	if st := s.repl(); st.wal != nil {
		if err := s.be.syncJournal(); err != nil {
			log.Printf("hybridserve: wal sync on shutdown: %v", err)
		}
		if err := st.wal.Close(); err != nil {
			log.Printf("hybridserve: wal close: %v", err)
		}
	}
}

// logFinalMetrics flushes a last metrics snapshot to the log on
// graceful shutdown, after the request drain — the counters' final
// state for post-mortems, in one structured JSON line.
func (s *server) logFinalMetrics() {
	topo := s.be.topo()
	d := s.metrics.Drift.Snapshot()
	refits := int64(0)
	if rc := s.repl().recal; rc != nil {
		refits = rc.Refits()
	}
	b, err := json.Marshal(map[string]any{
		"queries":              s.queries.Load(),
		"lsh_shard_answers":    s.lshAns.Load(),
		"linear_shard_answers": s.linAns.Load(),
		"live":                 topo.Live,
		"tombstones":           topo.Tombstones,
		"compactions_total":    topo.CompactionsTotal,
		"estimate_error_p50":   d.EstimateError.P50,
		"drift_time_ratio":     d.TimeRatio,
		"cost_refits_total":    refits,
		"cache_hits":           topo.CacheHits,
		"store_verified":       topo.Store.Verified,
		"store_quant_rejected": topo.Store.QuantRejected,
		"uptime_sec":           time.Since(s.start).Seconds(),
	})
	if err != nil {
		log.Printf("hybridserve: final metrics: %v", err)
		return
	}
	log.Printf("hybridserve: final metrics %s", b)
}
