package obs

import (
	"sync"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ServerMetrics bundles the query-path instrumentation of a serving
// process: per-strategy counters, estimate/search/wall latency
// histograms, the estimate-error drift histogram and the drift monitor,
// all registered on one Registry. internal/server records every answered
// query through it (and reads /stats' query and strategy counts back
// from it), and hybridbench's serve experiment prices that record path.
type ServerMetrics struct {
	// Queries counts answered queries (batch members count once each).
	Queries *Counter
	// Wall observes end-to-end per-query latency in seconds.
	Wall *Histogram
	// Drift is the cost-model/estimation drift monitor fed by every
	// shard answer.
	Drift *DriftMonitor
	// ShardAnswers counts per-shard strategy decisions, indexed by
	// core.Strategy (LSH, Linear).
	ShardAnswers [2]*Counter

	// Per-strategy children, indexed like ShardAnswers.
	estimateSec [2]*Histogram
	searchSec   [2]*Histogram
	estErr      *Histogram

	driftRatio *Gauge
	driftNPC   [2]*Gauge
}

// NewServerMetrics registers the query-path metric set on r and returns
// the bundle. driftWindow sizes the drift monitor's sliding windows
// (< 1 uses DefaultDriftWindow). It panics if the hybridlsh_* query
// metrics are already registered on r.
func NewServerMetrics(r *Registry, driftWindow int) *ServerMetrics {
	m := &ServerMetrics{
		Queries: r.NewCounter("hybridlsh_queries_total",
			"Queries answered (batch members count once each)."),
		Wall: r.NewHistogram("hybridlsh_query_wall_seconds",
			"End-to-end per-query latency, merge and tombstone filtering included.", DefLatencyBuckets),
		Drift: NewDriftMonitor(driftWindow),
		estErr: r.NewHistogram("hybridlsh_estimate_error_ratio",
			"HLL candidate estimate over actual distinct candidates, per sketch-merged LSH answer (1.0 = perfect).", RatioBuckets),
	}
	answers := r.NewCounterVec("hybridlsh_shard_answers_total",
		"Per-shard strategy decisions: how many shard answers ran each search path.", "strategy")
	estimate := r.NewHistogramVec("hybridlsh_estimate_seconds",
		"Algorithm-2 steps 1-3 per shard answer: bucket lookup, HLL merge, cost comparison.", DefLatencyBuckets, "strategy")
	search := r.NewHistogramVec("hybridlsh_search_seconds",
		"Chosen search per shard answer: S2 dedup + S3 distances, or the linear scan.", DefLatencyBuckets, "strategy")
	for _, st := range []core.Strategy{core.StrategyLSH, core.StrategyLinear} {
		m.ShardAnswers[st] = answers.With(st.String())
		m.estimateSec[st] = estimate.With(st.String())
		m.searchSec[st] = search.With(st.String())
	}

	m.driftRatio = r.NewGauge("hybridlsh_drift_time_ratio",
		"LSH over linear ns-per-cost-unit (window p50s); near 1 while the cost model's calibration holds, 0 until both paths observed.")
	npc := r.NewGaugeVec("hybridlsh_drift_ns_per_cost",
		"Measured search nanoseconds per predicted cost unit, window p50 per strategy.", "strategy")
	for _, st := range []core.Strategy{core.StrategyLSH, core.StrategyLinear} {
		m.driftNPC[st] = npc.With(st.String())
	}
	r.OnScrape(func() {
		d := m.Drift.Snapshot()
		m.driftRatio.Set(d.TimeRatio)
		m.driftNPC[core.StrategyLSH].Set(d.LSHNsPerCost.P50)
		m.driftNPC[core.StrategyLinear].Set(d.LinearNsPerCost.P50)
	})
	return m
}

// RecordQuery folds one answered query — the shard layer's aggregated
// stats — into every query-path metric. It is the single point the
// serve-overhead benchmark prices.
func (m *ServerMetrics) RecordQuery(st shard.QueryStats) {
	m.Queries.Inc()
	m.Wall.Observe(st.WallTime.Seconds())
	for _, qs := range st.PerShard {
		s := qs.Strategy
		if s != core.StrategyLSH {
			s = core.StrategyLinear
		}
		m.ShardAnswers[s].Inc()
		m.estimateSec[s].Observe(qs.EstimateTime.Seconds())
		m.searchSec[s].Observe(qs.SearchTime.Seconds())
		if ratio, ok := qs.EstimateErrorRatio(); ok {
			m.estErr.Observe(ratio)
		}
		m.Drift.Record(qs)
	}
}

// RegisterLatencyRecorder exposes an existing latency recorder (values
// in microseconds, as served by /stats) as p50/p95/p99 gauges plus a
// lifetime observation counter, refreshed at scrape time.
func RegisterLatencyRecorder(r *Registry, rec *stats.Recorder) {
	p50 := r.NewGauge("hybridlsh_latency_p50_us", "Sliding-window p50 of per-query wall latency, microseconds.")
	p95 := r.NewGauge("hybridlsh_latency_p95_us", "Sliding-window p95 of per-query wall latency, microseconds.")
	p99 := r.NewGauge("hybridlsh_latency_p99_us", "Sliding-window p99 of per-query wall latency, microseconds.")
	r.NewCounterFunc("hybridlsh_latency_observations_total",
		"Per-query latency observations ever recorded.", func() float64 { return float64(rec.Count()) })
	r.OnScrape(func() {
		p := rec.Percentiles(0.50, 0.95, 0.99)
		p50.Set(p[0])
		p95.Set(p[1])
		p99.Set(p[2])
	})
}

// RegisterTopology exposes the shard layer's topology as metrics:
// global live/tombstone/append/compaction series plus per-shard gauges
// (points, dead-in-buckets, completed compactions, answered queries,
// summed query seconds, appended points), all labeled {shard="j"}. The
// topology is fetched once per scrape via fetch, which must be safe to
// call concurrently (shard.Sharded.Stats is).
func RegisterTopology(r *Registry, fetch func() shard.Stats) {
	var mu sync.Mutex
	var last shard.Stats
	read := func(f func(shard.Stats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f(last)
		}
	}
	r.NewGaugeFunc("hybridlsh_points_live", "Live (appended minus deleted) points.",
		read(func(s shard.Stats) float64 { return float64(s.Live) }))
	r.NewCounterFunc("hybridlsh_tombstones_total", "Deleted ids ever (compacted or not; ids stay reserved forever).",
		read(func(s shard.Stats) float64 { return float64(s.Tombstones) }))
	r.NewGaugeFunc("hybridlsh_dead_in_buckets", "Tombstoned points still occupying buckets (cost-model skew).",
		read(func(s shard.Stats) float64 { return float64(s.DeadTotal) }))
	r.NewCounterFunc("hybridlsh_compactions_total", "Completed shard compactions.",
		read(func(s shard.Stats) float64 { return float64(s.CompactionsTotal) }))
	r.NewCounterFunc("hybridlsh_points_appended_total", "Points appended since construction (build-time points excluded).",
		read(func(s shard.Stats) float64 {
			var t float64
			for _, a := range s.ShardAppends {
				t += float64(a)
			}
			return t
		}))
	r.NewGaugeFunc("hybridlsh_shards", "Shard count.",
		read(func(s shard.Stats) float64 { return float64(s.Shards) }))
	r.NewCounterFunc("hybridlsh_cache_hits_total", "Result-cache answers served without touching any shard (0 when the cache is disabled).",
		read(func(s shard.Stats) float64 { return float64(s.CacheHits) }))
	r.NewCounterFunc("hybridlsh_cache_misses_total", "Result-cache lookups that fell through to the fan-out, stale-entry evictions included.",
		read(func(s shard.Stats) float64 { return float64(s.CacheMisses) }))
	r.NewCounterFunc("hybridlsh_cache_invalidations_total", "Cached answers evicted because a shard mutated (Append/Delete/Compact/SetCost) after they were filled.",
		read(func(s shard.Stats) float64 { return float64(s.CacheInvalidations) }))
	r.NewGaugeFunc("hybridlsh_cache_entries", "Result-cache entries currently held.",
		read(func(s shard.Stats) float64 { return float64(s.CacheEntries) }))
	r.NewGaugeFunc("hybridlsh_cache_capacity", "Result-cache entry capacity (0 when the cache is disabled).",
		read(func(s shard.Stats) float64 { return float64(s.CacheCapacity) }))

	// Point-store verification series. Gauges, not counters: compaction
	// swaps a shard's store and restarts its counters, so the sums can
	// step backwards.
	r.NewGaugeFunc("hybridlsh_store_verified", "Candidates that entered radius verification (LSH candidates plus linear-scan points), summed across shards; restarts at shard compaction.",
		read(func(s shard.Stats) float64 { return float64(s.Store.Verified) }))
	r.NewGaugeFunc("hybridlsh_store_quant_rejected", "Candidates the SQ8 pre-filter rejected without an exact distance computation (0 when quantization is off); restarts at shard compaction.",
		read(func(s shard.Stats) float64 { return float64(s.Store.QuantRejected) }))
	r.NewGaugeFunc("hybridlsh_store_quant_accepted", "Candidates the SQ8 filter accepted without an exact distance computation (quantized distance clear of the ambiguity band); restarts at shard compaction.",
		read(func(s shard.Stats) float64 { return float64(s.Store.QuantAccepted) }))
	r.NewGaugeFunc("hybridlsh_store_quant_rechecked", "Candidates inside the SQ8 ambiguity band that were re-checked exactly; restarts at shard compaction.",
		read(func(s shard.Stats) float64 { return float64(s.Store.QuantRechecked) }))
	r.NewGaugeFunc("hybridlsh_store_quant_refits", "Full SQ8 re-encodes triggered by appends outside the fitted range; restarts at shard compaction.",
		read(func(s shard.Stats) float64 { return float64(s.Store.QuantRefits) }))
	r.NewGaugeFunc("hybridlsh_store_quant_bytes", "Bytes held by the scalar-quantized point copies (0 when quantization is off).",
		read(func(s shard.Stats) float64 { return float64(s.Store.QuantBytes) }))

	points := r.NewGaugeVec("hybridlsh_shard_points", "Points in the shard's buckets, tombstoned included.", "shard")
	dead := r.NewGaugeVec("hybridlsh_shard_dead", "Tombstoned-but-still-bucketed points in the shard.", "shard")
	compactions := r.NewGaugeVec("hybridlsh_shard_compactions", "Completed compactions of the shard.", "shard")
	queries := r.NewGaugeVec("hybridlsh_shard_queries", "Queries the shard answered.", "shard")
	querySec := r.NewGaugeVec("hybridlsh_shard_query_seconds", "Summed estimate+search time the shard spent answering (fan-out latency attribution).", "shard")
	appends := r.NewGaugeVec("hybridlsh_shard_appends", "Points appended to the shard since construction.", "shard")

	r.OnScrape(func() {
		s := fetch()
		mu.Lock()
		last = s
		mu.Unlock()
		for j := 0; j < s.Shards; j++ {
			l := shardLabel(j)
			points.With(l).Set(float64(s.ShardSizes[j]))
			dead.With(l).Set(float64(s.DeadInBuckets[j]))
			compactions.With(l).Set(float64(s.Compactions[j]))
			queries.With(l).Set(float64(s.ShardQueries[j]))
			querySec.With(l).Set(float64(s.ShardQueryNanos[j]) / 1e9)
			appends.With(l).Set(float64(s.ShardAppends[j]))
		}
	})
}

// shardLabel formats a shard index as its label value.
func shardLabel(j int) string {
	// strconv.Itoa without the import churn at every call site.
	if j < 10 {
		return string(rune('0' + j))
	}
	return shardLabel(j/10) + string(rune('0'+j%10))
}
