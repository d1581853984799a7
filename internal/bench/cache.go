package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vector"
)

// CacheResult reports the result-cache experiment: the per-request
// latency of Zipf-skewed repeated traffic with and without the cache,
// the hit rate that skew buys, and two correctness gates — every cached
// answer must be id-identical to the uncached one (Mismatches), and a
// delete must never be served a resurrected id from the cache
// (StaleAfterDelete).
type CacheResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	Shards  int     `json:"shards"`
	// Distinct is the distinct-query pool size; Stream is how many
	// requests the Zipf law draws from it; ZipfS is the law's exponent.
	Distinct int     `json:"distinct_queries"`
	Stream   int     `json:"stream_length"`
	ZipfS    float64 `json:"zipf_s"`
	// Capacity is the cache's entry capacity — deliberately half the
	// distinct pool, so the unpopular tail exercises LRU eviction.
	Capacity int `json:"cache_capacity"`
	// UncachedP50US/P95US and CachedP50US/P95US are per-request wall-time
	// percentiles (µs) over the identical stream, before and after
	// EnableCache. SpeedupP50 is their p50 ratio, the headline number.
	UncachedP50US float64 `json:"uncached_p50_us"`
	UncachedP95US float64 `json:"uncached_p95_us"`
	CachedP50US   float64 `json:"cached_p50_us"`
	CachedP95US   float64 `json:"cached_p95_us"`
	SpeedupP50    float64 `json:"speedup_p50"`
	// HitRate is Hits over the cached stream's length.
	HitRate       float64 `json:"hit_rate"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Invalidations int64   `json:"invalidations"`
	// Mismatches counts stream positions where the cached run's answer
	// differed from the uncached run's (as id sets). Must be 0.
	Mismatches int `json:"mismatches"`
	// StaleAfterDelete is 1 if re-querying a cached query after deleting
	// one of its result ids still returned that id. Must be 0 — the
	// generation protocol invalidates the entry instead.
	StaleAfterDelete int `json:"stale_after_delete"`
}

// CacheExperiment measures what the tombstone-aware result cache is
// worth on skewed traffic, on the Corel-like L2 workload: a Zipf law
// over a fixed query pool replays the same popular queries — the
// workload caches exist for — first against the bare sharded index,
// then with an LRU cache of half the pool's size in front of the
// fan-out. The same stream order and the deterministic index make the
// two runs answer-comparable position by position, which doubles as the
// answer-equivalence gate. A final delete-and-requery probes the
// invalidation path: deleting a cached result id must evict the entry,
// not serve the tombstoned id back.
func CacheExperiment(cfg Config) (*CacheResult, error) {
	data, queries, r := corelWorkload(cfg)
	sh, err := corelSharded(cfg, data, r, core.CostModel{})
	if err != nil {
		return nil, fmt.Errorf("bench: building cache-experiment index: %w", err)
	}

	// The Zipf stream: 20 requests per distinct query on average, rank 1
	// heavily favoured. Drawn once so both runs replay identical traffic.
	const zipfS = 1.2
	streamLen := 20 * len(queries)
	rng := rand.New(rand.NewSource(int64(cfg.Seed + 11)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(queries)-1))
	stream := make([]int, streamLen)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}

	// Warm pass, then the uncached run: per-position wall times and the
	// reference answer per distinct query (sorted, for set comparison).
	for _, q := range queries {
		sh.Query(q)
	}
	baseline := make([][]int32, len(queries))
	uncached := make([]float64, streamLen)
	for i, idx := range stream {
		t0 := time.Now()
		ids, _ := sh.Query(queries[idx])
		uncached[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if baseline[idx] == nil {
			baseline[idx] = append([]int32{}, ids...)
			slices.Sort(baseline[idx])
		}
	}

	// The cached run: same stream, LRU of half the pool in front. The
	// traffic is single-threaded here, so enabling the cache between the
	// runs respects EnableCache's setup-before-traffic contract.
	capacity := len(queries)/2 + 1
	if err := sh.EnableCache(capacity, vector.Dense.CacheKey); err != nil {
		return nil, fmt.Errorf("bench: enabling result cache: %w", err)
	}
	cached := make([]float64, streamLen)
	mismatches := 0
	for i, idx := range stream {
		t0 := time.Now()
		ids, _ := sh.Query(queries[idx])
		cached[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		got := append([]int32{}, ids...)
		slices.Sort(got)
		if !slices.Equal(got, baseline[idx]) {
			mismatches++
		}
	}
	st := sh.Stats()

	// Invalidation probe: delete one id out of a popular cached answer
	// and re-ask. The generation bump must evict the entry; serving the
	// tombstoned id back would be the resurrection bug the cache design
	// exists to rule out.
	stale := 0
	for _, idx := range stream {
		if len(baseline[idx]) == 0 {
			continue
		}
		victim := baseline[idx][0]
		sh.Delete([]int32{victim})
		ids, qs := sh.Query(queries[idx])
		if qs.CacheHit || slices.Contains(ids, victim) {
			stale = 1
		}
		break
	}

	res := &CacheResult{
		Dataset: "corel-like", N: len(data), Metric: "l2", Radius: r,
		Shards: corelShards, Distinct: len(queries), Stream: streamLen,
		ZipfS: zipfS, Capacity: capacity,
		UncachedP50US:    stats.Quantile(uncached, 0.50),
		UncachedP95US:    stats.Quantile(uncached, 0.95),
		CachedP50US:      stats.Quantile(cached, 0.50),
		CachedP95US:      stats.Quantile(cached, 0.95),
		Hits:             st.CacheHits,
		Misses:           st.CacheMisses,
		Invalidations:    st.CacheInvalidations,
		HitRate:          float64(st.CacheHits) / float64(streamLen),
		Mismatches:       mismatches,
		StaleAfterDelete: stale,
	}
	if res.CachedP50US > 0 {
		res.SpeedupP50 = res.UncachedP50US / res.CachedP50US
	}
	return res, nil
}

// PrintCache renders the cache comparison like the other tables.
func PrintCache(w io.Writer, res *CacheResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s radius=%.3g shards=%d distinct=%d stream=%d zipf_s=%.2f capacity=%d\n",
		res.Dataset, res.N, res.Metric, res.Radius, res.Shards, res.Distinct, res.Stream, res.ZipfS, res.Capacity)
	fmt.Fprintf(w, "  %-10s %12s %12s\n", "mode", "p50 µs/q", "p95 µs/q")
	fmt.Fprintf(w, "  %-10s %12.1f %12.1f\n", "uncached", res.UncachedP50US, res.UncachedP95US)
	fmt.Fprintf(w, "  %-10s %12.1f %12.1f\n", "cached", res.CachedP50US, res.CachedP95US)
	fmt.Fprintf(w, "  p50 speedup ×%.1f  hit rate %.2f (%d hits, %d misses, %d invalidations)  mismatches %d  stale-after-delete %d\n",
		res.SpeedupP50, res.HitRate, res.Hits, res.Misses, res.Invalidations, res.Mismatches, res.StaleAfterDelete)
}
