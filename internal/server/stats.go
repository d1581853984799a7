package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/obs"
	"repro/internal/replica"
)

// recalEvery is how many answered queries pass between piggybacked
// auto-recalibration checks; the check itself is a couple of window
// snapshots, so this only bounds Stats() traffic.
const recalEvery = 64

// Record folds one answered query into the serving telemetry.
func (s *Server) Record(r *QueryResult) {
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
		if rc := s.role.Load().recal; rc != nil {
			rc.NoteCompactions(s.topo().CompactionsTotal)
			rc.Check()
		}
	}
	if n := s.cfg.TraceSample; n > 0 && s.sampled.Add(1)%int64(n) == 0 {
		if b, err := json.Marshal(s.traceOf(r)); err == nil {
			log.Printf("hybridserve: trace %s", b)
		}
	}
}

// traceOf assembles the full decision trace of one answered query.
func (s *Server) traceOf(r *QueryResult) *obs.QueryTrace {
	tr := obs.NewQueryTrace(r.stats, s.be.store().Cost())
	tr.Probes = r.Probes
	tr.Radius = r.Radius
	return tr
}

// registerMetrics adds the topology, latency-window and replication
// families next to the query-path bundle New already registered.
func (s *Server) registerMetrics() {
	obs.RegisterTopology(s.reg, s.topo)
	obs.RegisterLatencyRecorder(s.reg, s.lat)
	obs.RegisterRuntime(s.reg)
	parts := s.reg.NewGaugeVec("hybridlsh_index_bytes",
		"Bytes the node's index holds, by part, read from array lengths: points, heads (bucket heads and directories), ids, sketches, entries (per-id HLL entries), hashers, overlay (appended since the last freeze), idmap (global-id bookkeeping) and deltalog (a writer's retained delta frames).",
		"part")
	s.reg.OnScrape(func() {
		for _, p := range s.indexParts() {
			parts.With(p.name).Set(float64(p.bytes))
		}
	})
	s.reg.NewGaugeVec("hybridlsh_info",
		"Serving configuration (always 1); the labels carry the mode.", "metric", "mode").
		With(s.cfg.Metric, s.be.store().Defaults().Mode()).Set(1)
	// Journaling health: a non-zero error count means acknowledged
	// mutations stopped reaching the delta log (and so replicas and the
	// WAL) — the one replication failure that is otherwise silent. Read
	// through the role because promotion swaps the log in at runtime.
	s.reg.NewCounterFunc("hybridlsh_deltalog_errors_total",
		"Delta-log journaling failures (encode or WAL append); non-zero means replicas may be missing acknowledged mutations.",
		func() float64 {
			if l := s.role.Load().log; l != nil {
				return float64(l.Errors())
			}
			return 0
		})
	walStat := func(f func(replica.WALStats) float64) func() float64 {
		return func() float64 {
			if w := s.role.Load().wal; w != nil {
				return f(w.Stats())
			}
			return 0
		}
	}
	s.reg.NewGaugeFunc("hybridlsh_wal_segments",
		"Segment files in the delta-log WAL directory (0 without -waldir).",
		walStat(func(ws replica.WALStats) float64 { return float64(ws.Segments) }))
	s.reg.NewGaugeFunc("hybridlsh_wal_last_seq",
		"Highest sequence number durably appended to the WAL (0 without -waldir).",
		walStat(func(ws replica.WALStats) float64 { return float64(ws.LastSeq) }))
	// Set-up cost: the latest snapshot load (boot from -snapshot or a
	// -hydrate file, hydration and re-hydration from a writer) and write
	// (POST /snapshot, the GET /snapshot feed).
	s.reg.NewGaugeFunc("hybridlsh_snapshot_load_seconds",
		"Duration of the latest snapshot load: the -snapshot or -hydrate boot, or the latest (re-)hydration from a writer (0 for a built index).",
		func() float64 { d, _ := s.be.lastLoad(); return d.Seconds() })
	s.reg.NewGaugeFunc("hybridlsh_snapshot_load_bytes",
		"Size of the latest snapshot load (0 for a built index).",
		func() float64 { _, n := s.be.lastLoad(); return float64(n) })
	s.reg.NewGaugeFunc("hybridlsh_snapshot_write_seconds",
		"Duration of the latest snapshot write: POST /snapshot or the GET /snapshot feed (0 before the first).",
		func() float64 { return time.Duration(s.writeNanos.Load()).Seconds() })
	s.reg.NewGaugeFunc("hybridlsh_snapshot_write_bytes",
		"Size of the latest snapshot write (0 before the first).",
		func() float64 { return float64(s.writeBytes.Load()) })
}

// indexPart is one part of the memory the node's index holds.
type indexPart struct {
	name  string
	bytes int64
}

// indexParts returns the bytes the node's index holds, by part. It reads
// array lengths only, O(L) a shard.
func (s *Server) indexParts() []indexPart {
	st := s.topo()
	var deltalog int64
	if l := s.role.Load().log; l != nil {
		deltalog = l.Bytes()
	}
	t := st.Tables
	return []indexPart{
		{"points", st.Store.Bytes}, {"heads", t.Heads}, {"ids", t.IDs},
		{"sketches", t.Sketches}, {"entries", t.Entries}, {"hashers", t.Hashers},
		{"overlay", t.Overlay}, {"idmap", st.IDMapBytes}, {"deltalog", deltalog},
	}
}

// IndexBytes is the total of the bytes the node's index holds (the
// hybridlsh_index_bytes parts).
func (s *Server) IndexBytes() int64 {
	var n int64
	for _, p := range s.indexParts() {
		n += p.bytes
	}
	return n
}

// writeSnapshot streams the index snapshot to w — the body of POST
// /snapshot and of the GET /snapshot feed — and records its duration and
// size for /metrics.
func (s *Server) writeSnapshot(w io.Writer) (int64, error) {
	t0 := time.Now()
	n, err := s.be.streamSnapshot(w)
	if err == nil {
		s.writeNanos.Store(int64(time.Since(t0)))
		s.writeBytes.Store(n)
	}
	return n, err
}

// answered reads the query and per-strategy shard-answer counters off
// the /metrics registry, so /stats and /metrics cannot disagree.
func (s *Server) answered() (queries, lsh, linear int64) {
	m := s.metrics
	return int64(m.Queries.Value()), int64(m.ShardAnswers[core.StrategyLSH].Value()),
		int64(m.ShardAnswers[core.StrategyLinear].Value())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	topo := s.topo()
	p := s.lat.Percentiles(0.50, 0.95, 0.99)
	queries, lshAns, linAns := s.answered()
	multiprobe := map[string]any{"enabled": s.cfg.Probes > 0}
	if s.cfg.Probes > 0 {
		multiprobe["probes"] = s.cfg.Probes
		multiprobe["probed_queries"] = s.modeQueries.Load()
		multiprobe["probes_used_total"] = s.probesUsed.Load()
		multiprobe["override_queries"] = s.modeOverrides.Load()
	}
	cover := map[string]any{"enabled": s.cfg.CoverRadius > 0}
	if s.cfg.CoverRadius > 0 {
		cover["radius"] = s.cfg.CoverRadius
		cover["tables"] = covering.NumTables(s.cfg.CoverRadius)
		cover["covered_queries"] = s.modeQueries.Load()
		cover["override_queries"] = s.modeOverrides.Load()
	}
	ro := s.role.Load()
	recal := map[string]any{"enabled": ro.recal != nil, "cost": costJSON(s.be.store().Cost())}
	if ro.recal != nil {
		recal["dead_band"] = ro.recal.DeadBand()
		recal["min_samples"] = ro.recal.MinSamples()
		recal["refits_total"] = ro.recal.Refits()
	}
	cache := map[string]any{"enabled": topo.CacheEnabled}
	if topo.CacheEnabled {
		cache["capacity"] = topo.CacheCapacity
		cache["entries"] = topo.CacheEntries
		cache["hits"] = topo.CacheHits
		cache["misses"] = topo.CacheMisses
		cache["invalidations"] = topo.CacheInvalidations
	}
	repl := map[string]any{"read_only": ro.readOnly}
	switch {
	case ro.follower != nil:
		epoch, seq := ro.follower.Cursor()
		repl["role"] = "follower"
		repl["source"] = s.cfg.Hydrate
		repl["epoch"] = epoch
		repl["seq"] = seq
		repl["rehydrates"] = ro.follower.Rehydrates()
		repl["frames_applied"] = ro.follower.Applied()
	case ro.source != nil:
		repl["role"] = "source"
		repl["epoch"] = ro.log.Epoch()
		repl["seq"] = ro.log.Seq()
		repl["journal_errors"] = ro.log.Errors()
		jerr := ""
		if err := ro.log.Err(); err != nil {
			jerr = err.Error()
		}
		repl["journal_error"] = jerr
		if ro.wal != nil {
			repl["wal"] = ro.wal.Stats()
		}
	default:
		repl["role"] = "static"
		repl["source"] = s.cfg.Hydrate
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metric":       s.cfg.Metric,
		"dim":          s.cfg.Dim,
		"radius":       s.reportRadius(),
		"cover_radius": s.cfg.CoverRadius,
		"snapshot":     s.cfg.Snapshot,
		"warm_start":   s.loadedFrom != "",
		"uptime_sec":   time.Since(s.start).Seconds(),
		"shards":       topo.Shards,
		"shard_sizes":  topo.ShardSizes,
		"live":         topo.Live,
		"tombstones":   topo.Tombstones,
		"queries":      queries,
		"compaction": map[string]any{
			"threshold":       s.cfg.CompactThresh,
			"per_shard":       topo.Compactions,
			"total":           topo.CompactionsTotal,
			"dead_in_buckets": topo.DeadInBuckets,
			"dead_total":      topo.DeadTotal,
		},
		"strategy": map[string]int64{
			"lsh_shard_answers":    lshAns,
			"linear_shard_answers": linAns,
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

// logFinalMetrics flushes a last metrics snapshot to the log on
// graceful shutdown, after the request drain — the counters' final
// state for post-mortems, in one structured JSON line.
func (s *Server) logFinalMetrics() {
	topo := s.topo()
	d := s.metrics.Drift.Snapshot()
	queries, lshAns, linAns := s.answered()
	refits := int64(0)
	if rc := s.role.Load().recal; rc != nil {
		refits = rc.Refits()
	}
	b, err := json.Marshal(map[string]any{
		"queries":              queries,
		"lsh_shard_answers":    lshAns,
		"linear_shard_answers": linAns,
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
