package shard_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// cachedPair builds one cached and one uncached Sharded over the same
// points with the same seed: the build is deterministic, so the pair
// answers identically and the uncached one serves as the oracle.
func cachedPair(t *testing.T, points []vector.Dense, dim int, capacity int) (cached, plain *shard.Sharded[vector.Dense]) {
	t.Helper()
	build := l2Builder(dim, 0.4)
	cached, err := shard.New(points, 4, 5, build)
	if err != nil {
		t.Fatal(err)
	}
	if err := cached.EnableCache(capacity, vector.Dense.CacheKey); err != nil {
		t.Fatal(err)
	}
	plain, err = shard.New(points, 4, 5, build)
	if err != nil {
		t.Fatal(err)
	}
	return cached, plain
}

func TestCacheHitServesIdenticalIDs(t *testing.T) {
	points, queries := clustered(400, 10, 8, 0.01, 51)
	sh, _ := cachedPair(t, points, 8, 64)
	if !sh.CacheEnabled() {
		t.Fatal("CacheEnabled() = false after EnableCache")
	}
	first, st1 := sh.Query(queries[0])
	if st1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	if len(first) == 0 {
		t.Fatal("query reported nothing; test instance broken")
	}
	second, st2 := sh.Query(queries[0])
	if !st2.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	if len(st2.PerShard) != 0 {
		t.Fatalf("cache hit carries %d per-shard stats, want 0 (drift exclusion)", len(st2.PerShard))
	}
	if st2.Results != len(second) {
		t.Fatalf("hit Results = %d for %d ids", st2.Results, len(second))
	}
	if !slices.Equal(sorted(first), sorted(second)) {
		t.Fatalf("hit ids %v != filled ids %v", sorted(second), sorted(first))
	}
	// The returned slice is a copy: mutating it must not poison the cache.
	second[0] = -999
	third, _ := sh.Query(queries[0])
	if !slices.Equal(sorted(first), sorted(third)) {
		t.Fatal("mutating a hit's ids corrupted the cached entry")
	}
	cs := sh.Stats()
	if !cs.CacheEnabled || cs.CacheHits != 2 || cs.CacheMisses != 1 || cs.CacheEntries != 1 {
		t.Fatalf("cache stats = %+v, want enabled, 2 hits, 1 miss, 1 entry", cs)
	}
}

// TestCacheInvalidatedByMutations pins the generation protocol mutation
// by mutation: Append must surface new points, Delete must never let a
// cached entry resurrect a tombstoned id, Compact and SetCost must both
// drop entries filled before them.
func TestCacheInvalidatedByMutations(t *testing.T) {
	const dim = 8
	points, queries := clustered(400, 10, dim, 0.01, 53)
	sh, plain := cachedPair(t, points, dim, 64)
	q := queries[0]

	check := func(stage string) []int32 {
		t.Helper()
		ids, st := sh.Query(q)
		if st.CacheHit {
			t.Fatalf("%s: query after a mutation was served from the cache", stage)
		}
		want, _ := plain.Query(q)
		if !slices.Equal(sorted(ids), sorted(want)) {
			t.Fatalf("%s: cached index answered %v, oracle %v", stage, sorted(ids), sorted(want))
		}
		if again, st := sh.Query(q); !st.CacheHit || !slices.Equal(sorted(again), sorted(ids)) {
			t.Fatalf("%s: refill did not serve an identical hit", stage)
		}
		return ids
	}

	sh.Query(q) // fill

	// Append: the cluster point added right at the query must show up.
	if _, err := sh.Append([]vector.Dense{q}); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Append([]vector.Dense{q}); err != nil {
		t.Fatal(err)
	}
	ids := check("append")
	if !slices.Contains(ids, int32(len(points))) {
		t.Fatalf("appended id %d missing from post-append answer %v", len(points), ids)
	}

	// Delete: the tombstoned id must vanish even though a fresh cache
	// entry for q was just filled.
	victim := ids[0]
	sh.Delete([]int32{victim})
	plain.Delete([]int32{victim})
	ids = check("delete")
	if slices.Contains(ids, victim) {
		t.Fatalf("deleted id %d resurrected in %v", victim, ids)
	}

	// Compact: the rewrite renumbers ids, so serving a pre-compaction
	// entry would be visibly wrong.
	if _, err := sh.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.CompactAll(); err != nil {
		t.Fatal(err)
	}
	check("compact")

	// SetCost: a strategy flip can change the LSH path's (1-δ)-recall
	// result set, so a swap conservatively invalidates too.
	if err := sh.SetCost(core.CostModel{Alpha: 1e12, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	if err := plain.SetCost(core.CostModel{Alpha: 1e12, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	check("setcost")

	if cs := sh.Stats(); cs.CacheInvalidations < 4 {
		t.Fatalf("CacheInvalidations = %d after 4 mutating stages, want >= 4", cs.CacheInvalidations)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	points, queries := clustered(400, 10, 8, 0.01, 57)
	sh, _ := cachedPair(t, points, 8, 2)
	sh.Query(queries[0])
	sh.Query(queries[1])
	sh.Query(queries[0]) // refresh 0: the LRU victim becomes 1
	sh.Query(queries[2]) // evicts 1
	if cs := sh.Stats(); cs.CacheEntries != 2 || cs.CacheCapacity != 2 {
		t.Fatalf("cache stats = %+v, want 2 entries at capacity 2", cs)
	}
	if _, st := sh.Query(queries[0]); !st.CacheHit {
		t.Fatal("recently used entry was evicted")
	}
	if _, st := sh.Query(queries[1]); st.CacheHit {
		t.Fatal("LRU entry survived past capacity")
	}
}

// TestCacheKeyedByResolvedOptions pins the cache key: the same point
// asked at different probe counts must never share an entry, since the
// answers differ — while an override that spells out the built T is the
// plain query, and must hit the entry the plain query filled (one entry,
// not two).
func TestCacheKeyedByResolvedOptions(t *testing.T) {
	points, _ := clustered(300, 10, 8, 0.01, 61)
	sh, err := shard.New(points, 2, 5, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL2(8, 0.8),
			Distance: distance.L2,
			Radius:   0.4,
			K:        10,
			L:        8,
			Probes:   12,
			Seed:     seed,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.EnableCache(16, vector.Dense.CacheKey); err != nil {
		t.Fatal(err)
	}
	q := points[0]
	probes := func(t int) core.QueryOpts { return core.QueryOpts{Probes: core.Some(t)} }
	sh.Query(q)
	for _, c := range []struct {
		name string
		opts core.QueryOpts
		hit  bool
	}{
		{"repeat Query", core.QueryOpts{}, true},
		{"T=2 after Query", probes(2), false},
		{"T=3 after T=2", probes(3), false},
		{"repeat T=2", probes(2), true},
		{"built T=12 after Query", probes(12), true},
	} {
		_, st, err := sh.QueryWith(q, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit != c.hit {
			t.Fatalf("%s: cache hit = %v, want %v", c.name, st.CacheHit, c.hit)
		}
	}
	if cs := sh.Stats(); cs.CacheEntries != 3 {
		t.Fatalf("%d cache entries, want 3 (plain, T=2, T=3)", cs.CacheEntries)
	}
}

// TestCacheEnableValidation covers EnableCache's error paths.
func TestCacheEnableValidation(t *testing.T) {
	points, _ := clustered(50, 5, 8, 0.01, 63)
	sh, err := shard.New(points, 2, 5, l2Builder(8, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.EnableCache(0, vector.Dense.CacheKey); err == nil {
		t.Error("EnableCache(0) should fail")
	}
	if err := sh.EnableCache(4, nil); err == nil {
		t.Error("EnableCache with nil key should fail")
	}
	if sh.CacheEnabled() {
		t.Error("failed EnableCache calls left a cache installed")
	}
}

// TestCacheNoStaleResults is the no-stale-results property: a cached
// Sharded and an identically built uncached one receive the same
// arbitrary interleaving of queries, appends, deletes and compactions,
// and every query must answer id-identically — the cache may only ever
// change latency, never results.
func TestCacheNoStaleResults(t *testing.T) {
	const dim = 8
	points, queries := clustered(500, 12, dim, 0.01, 67)
	// Tiny capacity on purpose: eviction and refill churn is part of the
	// state space the property quantifies over.
	sh, plain := cachedPair(t, points, dim, 8)

	r := rng.New(97)
	nextFresh := 0
	for step := 0; step < 600; step++ {
		switch op := r.Float64(); {
		case op < 0.70: // query (repeats favoured so hits actually occur)
			q := queries[int(r.Float64()*float64(len(queries)))]
			got, _ := sh.Query(q)
			want, _ := plain.Query(q)
			if !slices.Equal(sorted(got), sorted(want)) {
				t.Fatalf("step %d: cached %v != uncached %v", step, sorted(got), sorted(want))
			}
		case op < 0.82: // append a small fresh batch
			batch, _ := clustered(3, 1, dim, 0.01, uint64(10_000+nextFresh))
			nextFresh++
			if _, err := sh.Append(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.Append(batch); err != nil {
				t.Fatal(err)
			}
		case op < 0.94: // delete a random live id
			id := int32(r.Float64() * float64(plain.N()))
			sh.Delete([]int32{id})
			plain.Delete([]int32{id})
		default: // compact one shard
			j := int(r.Float64() * 4)
			if _, err := sh.Compact(j); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.Compact(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := sh.Stats()
	if cs.CacheHits == 0 || cs.CacheInvalidations == 0 {
		t.Fatalf("property run exercised no hits or no invalidations: %+v", cs)
	}
}

// TestCacheConcurrentStress races cached queries against Append, Delete,
// Compact and SetCost; with -race it is the cache's concurrency proof.
// Each answer is checked against the one invariant that survives
// arbitrary interleaving: an id deleted before the query began can never
// be reported, because the tombstone filter (miss path) and the
// generation bump (hit path) both happen under the mutation's lock
// before Delete returns.
func TestCacheConcurrentStress(t *testing.T) {
	const dim = 8
	points, queries := clustered(400, 10, dim, 0.01, 71)
	sh, _ := cachedPair(t, points, dim, 32)

	// Only the deleter touches ids < 200, marking each done before the
	// delete call returns; readers snapshot the high-water mark before
	// querying.
	var mu sync.Mutex
	deleted := make(map[int32]bool)
	snapshot := func() map[int32]bool {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[int32]bool, len(deleted))
		for id := range deleted {
			out[id] = true
		}
		return out
	}

	const rounds = 25
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				gone := snapshot()
				q := queries[(w+i)%len(queries)]
				ids, st := sh.Query(q)
				if st.Results != len(ids) {
					t.Errorf("reader %d: Results = %d for %d ids", w, st.Results, len(ids))
				}
				for _, id := range ids {
					if gone[id] {
						t.Errorf("reader %d: id %d reported after its delete completed", w, id)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			batch, _ := clustered(5, 1, dim, 0.01, uint64(2000+i))
			if _, err := sh.Append(batch); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := int32(i * 7 % 200)
			sh.Delete([]int32{id})
			mu.Lock()
			deleted[id] = true
			mu.Unlock()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := sh.Compact(i % 4); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		models := [2]core.CostModel{{Alpha: 1e6, Beta: 1}, {Alpha: 1e-6, Beta: 1}}
		for i := 0; i < rounds; i++ {
			if err := sh.SetCost(models[i%2]); err != nil {
				t.Errorf("SetCost: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if cs := sh.Stats(); cs.CacheHits+cs.CacheMisses == 0 {
		t.Fatalf("stress run recorded no cache traffic: %+v", cs)
	}
}
