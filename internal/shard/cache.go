package shard

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// entryKey identifies one cached answer: the resolved per-query options
// (core.QueryOpts.Resolve — so an override spelling out the built value
// shares the plain query's entry) and the exact query encoding.
type entryKey struct {
	opts  core.QueryOpts
	point string
}

// resultCache is the fixed-capacity LRU behind Sharded.EnableCache: merged
// live-id answers keyed by (resolved options, exact query encoding), each entry
// stamped with the structure's mutation epoch at fill time. Validation is
// optimistic: the epoch — the sum of the per-shard generation counters —
// is read before the fan-out and compared at hit time, so an entry is
// served only when provably no shard mutated since it was filled. Stale
// entries are dropped on contact (counted as invalidations), never
// repaired, which is what makes the protocol unable to resurrect
// tombstoned ids or hide appended points: any overlapping Append, Delete,
// Compact or SetCost bumps a generation and kills the entry.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[entryKey]*list.Element

	hits, misses, invalidations atomic.Int64
}

// cacheEntry is one cached answer. ids is owned by the cache: it is
// copied in on put and copied out on get, so neither the filling query's
// caller nor a hit's caller can mutate it.
type cacheEntry struct {
	key   entryKey
	epoch uint64
	ids   []int32
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[entryKey]*list.Element, capacity),
	}
}

// get returns a copy of the answer cached under key if it was filled at
// the given epoch. An entry from any other epoch is stale — some shard
// mutated in between — and is evicted on the spot.
func (c *resultCache) get(key entryKey, epoch uint64) ([]int32, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch {
		c.order.Remove(el)
		delete(c.entries, key)
		c.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	out := append([]int32(nil), e.ids...)
	c.mu.Unlock()
	c.hits.Add(1)
	return out, true
}

// put stores a copy of ids under key, stamped with the epoch that was
// read before the filling query fanned out. A racing fill of the same key
// simply overwrites — whichever entry carries a stale epoch dies at its
// next get.
func (c *resultCache) put(key entryKey, epoch uint64, ids []int32) {
	stored := append([]int32(nil), ids...)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.epoch = epoch
		e.ids = stored
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, epoch: epoch, ids: stored})
	c.entries[key] = el
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
	c.mu.Unlock()
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// EnableCache installs a result cache of the given capacity in front of
// the query fan-out: Query and QueryWith first look up (resolved options,
// key(q)) and serve a hit without touching any shard — no fan-out,
// no strategy decision, no per-shard stats (a hit's QueryStats has
// CacheHit set and an empty PerShard, which is what keeps drift windows
// ingesting only uncached timings). key must be an exact, injective
// encoding of the point (see vector.Dense.CacheKey / vector.Binary.CacheKey)
// — a lossy key would let two distinct queries share an answer.
//
// EnableCache is part of setup, not serving: call it before the structure
// takes traffic (it is not synchronized with in-flight queries).
func (s *Sharded[P]) EnableCache(capacity int, key func(P) string) error {
	if capacity <= 0 {
		return fmt.Errorf("shard: EnableCache(%d), want capacity >= 1", capacity)
	}
	if key == nil {
		return fmt.Errorf("shard: EnableCache with nil key function")
	}
	s.cache = newResultCache(capacity)
	s.cacheKey = key
	return nil
}

// CacheEnabled reports whether a result cache is installed.
func (s *Sharded[P]) CacheEnabled() bool { return s.cache != nil }

// epoch sums the per-shard generation counters. Every counter is
// monotonic, so two equal sums mean no shard mutated in between — the
// whole cache-coherence argument in one line.
func (s *Sharded[P]) epoch() uint64 {
	var e uint64
	for _, st := range s.shards {
		e += st.gen.Load()
	}
	return e
}

// answer serves one query under the resolved options o through the
// cache protocol: look up under (o, exact key); on a hit return the
// copied ids with the decision bypassed entirely; on a miss read the
// epoch first, fan out, and file the merged answer under that pre-fan-out
// epoch (conservative: a mutation overlapping the fan-out lands the entry
// with a stale stamp, and it dies at its next lookup).
func (s *Sharded[P]) answer(q P, o core.QueryOpts) ([]int32, QueryStats, error) {
	if s.cache == nil {
		return s.fanOut(q, o)
	}
	t0 := time.Now()
	key := entryKey{opts: o, point: s.cacheKey(q)}
	epoch := s.epoch()
	if ids, ok := s.cache.get(key, epoch); ok {
		return ids, QueryStats{
			CacheHit: true,
			Results:  len(ids),
			WallTime: time.Since(t0),
		}, nil
	}
	ids, qs, err := s.fanOut(q, o)
	if err == nil {
		s.cache.put(key, epoch, ids)
	}
	return ids, qs, err
}
