// Command hybridserve serves a sharded hybrid-LSH index over HTTP JSON.
// It is the reproduction's traffic-facing layer: queries fan out across
// the shards in parallel, appends grow one shard while the others keep
// serving, and deletes are immediate tombstones — all concurrency-safe
// (see internal/shard). This command is flag registration and a
// listener; the node itself — handlers, replication role, telemetry —
// is internal/server.
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
// # Memory
//
// The node caps its memory at its index plus 32 MiB: a soft limit
// (debug.SetMemoryLimit) set once the index is loaded and re-sized every
// second as appends grow it or compactions shrink it, instead of the
// default heap goal of twice the index. GOGC or GOMEMLIMIT set in the
// environment win, and the node then leaves the runtime as it is.
// /metrics reports the index by part (hybridlsh_index_bytes{part}) next
// to the runtime's live heap, GC goal, memory limit, GC cycles and GC
// CPU seconds.
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
// Every request body is capped at -maxbody bytes (default 8 MiB), counted
// over the whole body, bytes after the JSON value included; an oversized
// body gets a 413 JSON error and is not applied. Deletes are tombstones that
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
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	cfg := server.DefaultConfig()
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridserve:", err)
		os.Exit(1)
	}
	if limit, ok := sizeGC(srv.IndexBytes()); ok {
		log.Printf("hybridserve: memory limit %d MiB: the index plus %d MiB", limit>>20, gcHeadroom>>20)
		go resizeGC(srv)
	}
	log.Printf("hybridserve: %v, listening on %s", srv, cfg.Addr)
	if cfg.PprofAddr != "" {
		go servePprof(cfg.PprofAddr)
	}
	if err := serve(cfg.Addr, srv.Handler(), srv.Shutdown); err != nil {
		fmt.Fprintln(os.Stderr, "hybridserve:", err)
		os.Exit(1)
	}
}

// gcHeadroom is the memory the GC policy leaves above the index for
// request garbage and for the transient copies a compaction or a
// replayed delta frame builds.
const gcHeadroom = 32 << 20

// sizeGC is the node's GC policy: it sets the runtime's soft memory
// limit to the index plus gcHeadroom. The index lives as long as the
// process, in pointer-free arrays that a GC cycle marks in O(1) each,
// so under the default GOGC = 100 alone the heap goal is twice the
// index: headroom sized to the index instead of to the garbage requests
// make. GOGC = 100 still holds below the limit, so a node whose index is
// under gcHeadroom keeps its default goal between transients. GOGC or
// GOMEMLIMIT set in the environment win: sizeGC then changes nothing. It
// reports the limit it set.
func sizeGC(indexBytes int64) (limit int64, ok bool) {
	if os.Getenv("GOGC") != "" || os.Getenv("GOMEMLIMIT") != "" {
		return 0, false
	}
	limit = indexBytes + gcHeadroom
	debug.SetMemoryLimit(limit)
	return limit, true
}

// resizeGC re-applies sizeGC every second, so that the limit follows an
// index that appends grow or compactions shrink; reading the index's
// size is O(L) a shard.
func resizeGC(srv *server.Server) {
	for range time.Tick(time.Second) {
		sizeGC(srv.IndexBytes())
	}
}

// registerFlags binds every hybridserve flag to the server.Config field
// it configures; cfg's current values are the defaults.
func registerFlags(fs *flag.FlagSet, cfg *server.Config) {
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.StringVar(&cfg.Metric, "metric", cfg.Metric, "distance metric: l2 or hamming")
	fs.IntVar(&cfg.Dim, "dim", cfg.Dim, "point dimension (bits for hamming)")
	fs.IntVar(&cfg.N, "n", cfg.N, "synthetic seed-dataset size")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "number of index shards")
	fs.Float64Var(&cfg.Radius, "r", cfg.Radius, "reporting radius the index is built for")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "seed-dataset and construction seed")
	fs.IntVar(&cfg.Window, "latwindow", cfg.Window, "latency-percentile window (observations)")
	fs.StringVar(&cfg.Snapshot, "snapshot", cfg.Snapshot,
		"snapshot file: loaded at boot when it exists (dim/r/shards then come from the snapshot), written by POST /snapshot")
	fs.Int64Var(&cfg.MaxBody, "maxbody", cfg.MaxBody,
		"maximum request body size in bytes; larger bodies get a 413 JSON error")
	fs.Float64Var(&cfg.CompactThresh, "compactthreshold", cfg.CompactThresh,
		"auto-compact a shard once its tombstone ratio exceeds this; >= 1 disables auto-compaction")
	fs.IntVar(&cfg.Probes, "probes", cfg.Probes,
		"serve a multi-probe index probing T extra buckets per table (l2 only; 0 = classic hybrid index)")
	fs.IntVar(&cfg.Tables, "tables", cfg.Tables,
		"hash tables per shard index (0 = default: 50 classic, 10 multi-probe)")
	fs.IntVar(&cfg.CoverRadius, "radius", cfg.CoverRadius,
		"serve a covering-LSH index with guaranteed recall within this integer Hamming radius (hamming only; 0 = classic)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample,
		"log every Nth answered query's full decision trace as a structured JSON line (0 = off)")
	fs.StringVar(&cfg.PprofAddr, "pprof", cfg.PprofAddr,
		"serve net/http/pprof on this separate address (empty = off; keep it private)")
	fs.StringVar(&cfg.Recalibrate, "recalibrate", cfg.Recalibrate,
		"online cost-model recalibration: auto refits alpha/beta when drift leaves the dead band and enables POST /recalibrate, off disables both")
	fs.IntVar(&cfg.CacheSize, "cache", cfg.CacheSize,
		"result-cache entry capacity; repeated queries are answered from an LRU invalidated on every mutation (0 = off)")
	fs.StringVar(&cfg.Quant, "quant", cfg.Quant,
		"point-store quantization: sq8 keeps a scalar-quantized verification copy (l2 only; answers stay id-identical), off stores exact values only; snapshots restore their recorded mode")
	fs.StringVar(&cfg.Hydrate, "hydrate", cfg.Hydrate,
		"run as a read-only replica hydrated from this source: an http(s) URL of a writer (hydrates from GET /snapshot, then tails GET /delta and converges continuously) or a local snapshot file path (static replica)")
	fs.IntVar(&cfg.LogCap, "deltalog", cfg.LogCap,
		"delta-log retention in frames on a writer; a replica that falls further behind must re-hydrate from the snapshot (0 = default)")
	fs.StringVar(&cfg.WALDir, "waldir", cfg.WALDir,
		"spill the delta log to segmented WAL files in this directory; a restarted writer replays them and resumes the same epoch and cursor, so followers keep tailing without a re-hydrate (empty = in-memory log only)")
	fs.StringVar(&cfg.Fsync, "fsync", cfg.Fsync,
		"WAL fsync policy: always (every frame durable before its ack), interval (background flush; a crash can lose the last interval) or off (the OS decides)")
	fs.Int64Var(&cfg.WALSeg, "walseg", cfg.WALSeg,
		"WAL segment rotation size in bytes (0 = default 64 MiB); snapshots truncate fully-covered segments")
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
