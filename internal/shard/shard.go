// Package shard partitions a hybrid-LSH index across S independent
// shards (any core.Store implementation — plain core.Index,
// multiprobe.Index or covering.Index) and serves queries by parallel
// fan-out with a result-set merge. It is the concurrency layer of the
// reproduction:
// the underlying indexes are single-writer (Append must not run
// concurrently with queries), whereas Sharded guards every shard with
// its own sync.RWMutex, so queries proceed on S-1 shards while the S-th
// absorbs an Append (a concurrent query's fan-out merge still waits for
// the appending shard), and Delete is a tombstone-set update that never
// touches the hash tables at all.
//
// Points keep the ids they would have in an unsharded index built over
// the same slice: point i of the build set lives in shard i mod S under
// local id i/S, and Append assigns global ids from N upward exactly like
// core.Index.Append. Queries therefore report the same id universe as
// the unsharded index, which is what the equivalence tests assert.
//
// # Deletes and compaction
//
// Delete only tombstones: the deleted ids vanish from reports
// immediately, but their points stay in the buckets, so the cost-model
// inputs of the hybrid decision (LinearCost's n, the #collisions bucket
// sizes, the per-bucket HLL sketches) keep counting them. Compact(j)
// repairs that online: it rewrites shard j's index without the dead
// points — same hash functions, buckets stripped of dead ids, sketches
// rebuilt from the live ids — off the write lock, then swaps it in under
// a brief write lock, so queries on the other S-1 shards never block and
// queries on shard j normally wait only for the pointer swap (see
// Compact for the one append-racing caveat). Delete triggers
// compaction automatically once a shard's dead ratio exceeds the
// SetAutoCompact threshold (default 20%). Deleted ids stay reserved
// forever: compaction never shrinks the id space, so N(), snapshots and
// future Appends keep seeing the holes.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/pointstore"
)

// Builder constructs one shard's index from its point subset. Any
// core.Store implementation works — *core.Index for the classic hybrid
// index, multiprobe.Index for multi-probe shards. seed is pre-mixed per
// shard so the S sub-indexes draw independent hash functions; builders
// should pass it through to their index's construction seed.
type Builder[P any] func(points []P, seed uint64) (core.Store[P], error)

// shardState is one partition: the immutable-under-RLock index and
// the local→global id map, both guarded by mu. compactMu serializes
// compactions of this shard (held across the whole rewrite, which spans
// an RLock phase and a Lock phase of mu) — it is always acquired before
// mu and never while holding any other lock.
type shardState[P any] struct {
	mu        sync.RWMutex
	ix        core.Store[P]
	ids       []int32 // ids[local] = global id
	compactMu sync.Mutex

	// gen counts mutations of this shard's answer set — Append, Compact,
	// Delete of an id it owns, and cost-model swaps (a strategy flip can
	// change the LSH path's reported set). The result cache stamps every
	// entry with the summed generations read before fan-out; any bump in
	// between invalidates the entry, so cached answers can never resurrect
	// tombstoned ids or miss new points. Bumped only while the mutation's
	// guarding lock is held, so a reader that observes the bump also
	// observes the mutation.
	gen atomic.Uint64

	// Observability counters, cumulative over the shard's lifetime
	// (compaction swaps the index but keeps the counters): queries
	// answered by this shard, the summed estimate+search time they cost
	// here (the fan-out latency attribution — which shard the query
	// budget actually goes to), and points appended.
	queries    atomic.Int64
	queryNanos atomic.Int64
	appends    atomic.Int64
}

// DefaultCompactionThreshold is the dead-point ratio above which Delete
// compacts a shard automatically (see SetAutoCompact).
const DefaultCompactionThreshold = 0.20

// Sharded is a concurrency-safe hybrid index over S core.Index shards.
// Any number of Query/QueryBatch/Delete/Stats calls may run concurrently
// with each other and with Append; Append itself write-locks only the
// single shard it grows.
type Sharded[P any] struct {
	shards []*shardState[P]
	// defaults is every shard's core.Store.Defaults — the serving mode as
	// data: which per-query options the shards support and the values
	// they were built with. Fixed at construction (compaction preserves
	// each shard's kind and configuration); New and Restore reject shards
	// that disagree, so one Resolve up front speaks for the whole fan-out.
	defaults core.QueryOpts

	// appendMu serializes appends (target selection + id allocation);
	// nextID is atomic so readers (N, Delete, Stats) never block behind
	// an in-flight bulk append.
	appendMu sync.Mutex
	nextID   atomic.Int32

	// tombMu guards the delete/compaction bookkeeping below. Lock order:
	// a goroutine holding a shard's mu may acquire tombMu, never the
	// reverse (Delete releases tombMu before triggering compaction).
	tombMu sync.RWMutex
	// tombs is the set of deleted global ids, filtered out of every
	// report. Ids stay in it forever — even after compaction removes the
	// points from the buckets — because the id space never shrinks: N()
	// and persisted snapshots account for the holes through this set.
	tombs map[int32]struct{}
	// owners[id] is the shard currently holding id's point, or -1 once
	// compaction dropped it from the buckets. It attributes each delete
	// to a shard in O(1) so the auto-compaction trigger knows per-shard
	// dead ratios without scanning.
	owners []int32
	// shardDead[j] counts shard j's tombstoned-but-still-bucketed points
	// — the part of tombs that still skews shard j's cost model.
	shardDead []int
	// compactions[j] counts completed compactions of shard j.
	compactions []int64
	// compactThresh is the auto-compaction trigger ratio; >= 1 disables.
	compactThresh float64

	// cache, when non-nil, memoizes merged live-id answers keyed by
	// cacheKey's exact query encoding (see EnableCache and cache.go for
	// the epoch-stamped coherence protocol).
	cache    *resultCache
	cacheKey func(P) string

	// journal, when non-nil, receives every mutation as it commits (see
	// Journal and SetJournal). Set once before traffic, read-only after.
	journal Journal[P]
}

// Journal receives every mutation of a Sharded in commit order, so a
// replica replaying the stream on top of a snapshot converges to a
// state that answers id-for-id identically (internal/replica encodes
// these calls as hybridlsh-delta/v1 frames).
//
// The calls carry exactly the information whose derivation is
// timing-dependent on the writer and must therefore not be re-derived
// on a replica:
//
//   - JournalAppend names the target shard explicitly, because
//     smallest-shard routing depends on compaction timing; and the base
//     global id, so a replica can detect (and idempotently skip) a
//     batch already present in its snapshot.
//   - JournalCompact names the removed ids explicitly, because which
//     tombstones a compaction sweeps depends on when it ran.
//
// Ordering guarantees: JournalAppend is called before the new ids are
// published (so a delete of an id always follows its append);
// JournalDelete is called under the tombstone lock that inserted the
// tombstones (so a compaction's removed set always follows the deletes
// it sweeps); JournalCompact is called after the compacted index is
// swapped in. Implementations must be safe for concurrent use and must
// not call back into the Sharded.
type Journal[P any] interface {
	// JournalAppend records a committed append of points at global ids
	// [base, base+len(points)) into shard.
	JournalAppend(shard int, base int32, points []P)
	// JournalDelete records newly tombstoned ids (strictly increasing;
	// already-dead and unknown ids from the Delete call are not
	// repeated).
	JournalDelete(ids []int32)
	// JournalCompact records that shard physically removed the given
	// tombstoned ids (strictly increasing) from its buckets.
	JournalCompact(shard int, removed []int32)
}

// JournalSyncer is an optional extension of Journal: a journal whose
// sink buffers (a write-ahead log, a file) implements it so callers
// can force recorded mutations to stable storage at a barrier — e.g.
// before a snapshot claims the journaled prefix is covered.
type JournalSyncer interface {
	// SyncJournal flushes every mutation journaled so far to the
	// journal's durable sink.
	SyncJournal() error
}

// SyncJournal flushes the installed journal if it implements
// JournalSyncer; a nil or non-durable journal is a successful no-op.
// Taking appendMu orders the flush after every committed append's
// journal call.
func (s *Sharded[P]) SyncJournal() error {
	s.appendMu.Lock()
	j := s.journal
	s.appendMu.Unlock()
	if js, ok := j.(JournalSyncer); ok {
		return js.SyncJournal()
	}
	return nil
}

// SetJournal installs the mutation journal. It must be called before
// any Append/Delete/Compact traffic (there is no synchronization with
// in-flight mutations); pass nil to detach. Replay methods
// (ApplyAppend, CompactExact) never journal, so a replica that is
// itself journaled does not echo replicated mutations.
func (s *Sharded[P]) SetJournal(j Journal[P]) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.tombMu.Lock()
	defer s.tombMu.Unlock()
	s.journal = j
}

// shardSeed derives the construction seed of shard i so that shards draw
// independent hash functions while the whole structure stays
// deterministic in the caller's seed.
func shardSeed(seed uint64, i int) uint64 {
	return hashutil.Mix64(seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
}

// New partitions points round-robin across s shards and builds the
// sub-indexes in parallel via build. s is clamped to len(points) so every
// shard is non-empty; it must be >= 1 and points must be non-empty.
func New[P any](points []P, s int, seed uint64, build Builder[P]) (*Sharded[P], error) {
	if s < 1 {
		return nil, fmt.Errorf("shard: New with %d shards, want >= 1", s)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("shard: New on empty point set")
	}
	if build == nil {
		return nil, fmt.Errorf("shard: New with nil builder")
	}
	if s > len(points) {
		s = len(points)
	}

	parts := make([][]P, s)
	ids := make([][]int32, s)
	owners := make([]int32, len(points))
	for i := range points {
		j := i % s
		parts[j] = append(parts[j], points[i])
		ids[j] = append(ids[j], int32(i))
		owners[i] = int32(j)
	}

	sh := &Sharded[P]{
		shards:        make([]*shardState[P], s),
		tombs:         make(map[int32]struct{}),
		owners:        owners,
		shardDead:     make([]int, s),
		compactions:   make([]int64, s),
		compactThresh: DefaultCompactionThreshold,
	}
	sh.nextID.Store(int32(len(points)))
	errs := make([]error, s)
	var wg sync.WaitGroup
	for j := 0; j < s; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ix, err := build(parts[j], shardSeed(seed, j))
			if err != nil {
				errs[j] = fmt.Errorf("shard %d: %w", j, err)
				return
			}
			sh.shards[j] = &shardState[P]{ix: ix, ids: ids[j]}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := sh.setDefaults(); err != nil {
		return nil, err
	}
	return sh, nil
}

// setDefaults records the shards' common Defaults, failing when two
// shards were built in different modes or configurations.
func (s *Sharded[P]) setDefaults() error {
	s.defaults = s.shards[0].ix.Defaults()
	for j, st := range s.shards[1:] {
		if d := st.ix.Defaults(); d != s.defaults {
			return fmt.Errorf("shard: shard %d is built as %+v, shard 0 as %+v", j+1, d, s.defaults)
		}
	}
	return nil
}

// Shards returns the number of partitions.
func (s *Sharded[P]) Shards() int { return len(s.shards) }

// ShardSnapshot is one shard's state as seen by Snapshot or supplied to
// Restore: the shard's index and its local→global id map (IDs[local] is
// the global id of the shard's local point).
type ShardSnapshot[P any] struct {
	Index core.Store[P]
	IDs   []int32
}

// Snapshot runs f over a consistent read view of the whole structure:
// the per-shard core indexes and id maps, the high-water id mark (the
// next global id an Append would assign — deleted ids are never
// reused), and the tombstone set (sorted). Appends are blocked and all
// shards are read-locked for the duration of f, so f must not call any
// mutating method of s; queries keep flowing. The view's indexes and id
// slices are live references — f must only read them, and must not
// retain them past its return.
func (s *Sharded[P]) Snapshot(f func(shards []ShardSnapshot[P], nextID int32, tombstones []int32) error) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	view := make([]ShardSnapshot[P], len(s.shards))
	for j, st := range s.shards {
		st.mu.RLock()
		defer st.mu.RUnlock()
		view[j] = ShardSnapshot[P]{Index: st.ix, IDs: st.ids}
	}

	s.tombMu.RLock()
	tombs := make([]int32, 0, len(s.tombs))
	for id := range s.tombs {
		tombs = append(tombs, id)
	}
	s.tombMu.RUnlock()
	slices.Sort(tombs)

	return f(view, s.nextID.Load(), tombs)
}

// Restore reassembles a Sharded from decoded shard states (e.g. a
// persisted snapshot) without rebuilding: each shard's core index is
// used as-is. nextID is the saved high-water id mark; tombstones are the
// saved deleted ids, which Restore keeps so that N() accounts for holes
// in the id space even when the deleted points were compacted out of the
// shards. Every shard id and tombstone must lie in [0, nextID), and ids
// must be unique across shards.
func Restore[P any](shards []ShardSnapshot[P], nextID int32, tombstones []int32) (*Sharded[P], error) {
	if len(shards) < 1 {
		return nil, fmt.Errorf("shard: Restore with no shards")
	}
	if nextID < 0 {
		return nil, fmt.Errorf("shard: Restore with nextID = %d, want >= 0", nextID)
	}
	sh := &Sharded[P]{
		shards:        make([]*shardState[P], len(shards)),
		tombs:         make(map[int32]struct{}, len(tombstones)),
		owners:        make([]int32, nextID),
		shardDead:     make([]int, len(shards)),
		compactions:   make([]int64, len(shards)),
		compactThresh: DefaultCompactionThreshold,
	}
	for i := range sh.owners {
		sh.owners[i] = -1
	}
	for _, id := range tombstones {
		if id < 0 || id >= nextID {
			return nil, fmt.Errorf("shard: Restore tombstone id %d outside [0,%d)", id, nextID)
		}
		sh.tombs[id] = struct{}{}
	}
	seen := make(map[int32]struct{}, int(nextID))
	for j, v := range shards {
		if v.Index == nil {
			return nil, fmt.Errorf("shard: Restore shard %d has no index", j)
		}
		if len(v.IDs) != v.Index.N() {
			return nil, fmt.Errorf("shard: Restore shard %d has %d ids for %d points", j, len(v.IDs), v.Index.N())
		}
		for _, id := range v.IDs {
			if id < 0 || id >= nextID {
				return nil, fmt.Errorf("shard: Restore shard %d id %d outside [0,%d)", j, id, nextID)
			}
			if _, dup := seen[id]; dup {
				return nil, fmt.Errorf("shard: Restore id %d appears in more than one shard", id)
			}
			seen[id] = struct{}{}
			sh.owners[id] = int32(j)
			// A snapshot normally compacts tombstoned points out, but the
			// invariant Restore itself enforces is weaker; count any
			// still-bucketed tombstone so the auto-compaction trigger
			// sees it.
			if _, dead := sh.tombs[id]; dead {
				sh.shardDead[j]++
			}
		}
		sh.shards[j] = &shardState[P]{ix: v.Index, ids: v.IDs}
	}
	sh.nextID.Store(nextID)
	if err := sh.setDefaults(); err != nil {
		return nil, err
	}
	return sh, nil
}

// N returns the number of live (appended minus deleted) points.
func (s *Sharded[P]) N() int {
	total := int(s.nextID.Load())
	s.tombMu.RLock()
	dead := len(s.tombs)
	s.tombMu.RUnlock()
	return total - dead
}

// QueryStats aggregates the per-shard core.QueryStats of one fanned-out
// query.
type QueryStats struct {
	// CacheHit marks an answer served from the result cache: no shard was
	// touched, no strategy decided, and PerShard is empty — drift monitors
	// iterating PerShard therefore never ingest cached (near-zero) timings.
	CacheHit bool
	// PerShard holds each shard's stats, indexed by shard.
	PerShard []core.QueryStats
	// LSHShards and LinearShards count the strategy mix: how many shards
	// answered with LSH-based search vs the exact linear scan.
	LSHShards, LinearShards int
	// Collisions, Candidates and Results are summed over shards. Results
	// counts ids after tombstone filtering.
	Collisions, Candidates, Results int
	// MaxShardTime is the slowest shard's estimate+search time — the
	// fan-out's critical path. TotalShardTime is the sum over shards, the
	// CPU cost of the query.
	MaxShardTime, TotalShardTime time.Duration
	// WallTime is the end-to-end latency including merge and filtering.
	WallTime time.Duration
}

// Query fans q out to every shard in parallel, merges the per-shard
// result sets into global ids, drops tombstoned ids and returns the rest
// (distinct, unordered) with aggregated stats.
func (s *Sharded[P]) Query(q P) ([]int32, QueryStats) {
	// The zero options are Query itself on every store (core.Store), so
	// there is no error to report.
	ids, stats, _ := s.answer(q, core.QueryOpts{})
	return ids, stats
}

// QueryWith is Query under per-query overrides, applied on every shard
// (core.Store.QueryWith): a probe count on multi-probe shards, a
// narrowed reporting radius on covering ones. An option the shards do
// not support yields core.ErrUnsupportedOption before any shard is
// touched.
func (s *Sharded[P]) QueryWith(q P, o core.QueryOpts) ([]int32, QueryStats, error) {
	o, err := o.Resolve(s.defaults)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return s.answer(q, o)
}

// Defaults returns the per-query options the shards support, set to the
// values they were built with (core.Store.Defaults) — the structure's
// serving mode.
func (s *Sharded[P]) Defaults() core.QueryOpts { return s.defaults }

// Cost returns the cost model the shards decide with. All shards share
// one calibration (New passes the same Config to every builder), so
// shard 0's model speaks for the structure; serving layers attach its
// α/β terms to query decision traces.
func (s *Sharded[P]) Cost() core.CostModel {
	st := s.shards[0]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.ix.Cost()
}

// SetCost atomically swaps the cost model on every shard, so all shards
// keep deciding with one shared calibration (the invariant Cost()
// documents). It may run concurrently with queries — each shard's swap is
// a single atomic store — and serializes with that shard's Compact via
// compactMu, so a swap can never be lost to a concurrent rewrite's
// copy-then-swap. Models that are not Usable (non-positive, NaN or Inf
// constants) are rejected before any shard is touched.
func (s *Sharded[P]) SetCost(c core.CostModel) error {
	if !c.Usable() {
		return fmt.Errorf("shard: SetCost(%+v), want positive finite constants", c)
	}
	for j, st := range s.shards {
		st.compactMu.Lock()
		st.mu.RLock()
		err := st.ix.SetCost(c)
		if err == nil {
			// A different (α, β) can flip LINEAR↔LSH, and the LSH path's
			// reported set is not the linear scan's — invalidate cached
			// answers.
			st.gen.Add(1)
		}
		st.mu.RUnlock()
		st.compactMu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", j, err)
		}
	}
	return nil
}

// shardPart is one shard's contribution to a fan-out.
type shardPart struct {
	ids []int32 // global ids
	err error
}

// fanOut answers q on every shard in parallel under the resolved
// options o and merges the results.
func (s *Sharded[P]) fanOut(q P, o core.QueryOpts) ([]int32, QueryStats, error) {
	t0 := time.Now()
	stats := QueryStats{PerShard: make([]core.QueryStats, len(s.shards))}
	parts := make([]shardPart, len(s.shards))

	var wg sync.WaitGroup
	answer := func(j int, st *shardState[P]) {
		defer wg.Done()
		st.mu.RLock()
		local, qs, err := st.ix.QueryWith(q, o)
		global := make([]int32, len(local))
		for i, id := range local {
			global[i] = st.ids[id]
		}
		st.mu.RUnlock()
		st.queries.Add(1)
		st.queryNanos.Add(int64(qs.TotalTime()))
		parts[j] = shardPart{ids: global, err: err}
		stats.PerShard[j] = qs
	}
	for j, st := range s.shards {
		wg.Add(1)
		go answer(j, st)
	}
	wg.Wait()

	for j, p := range parts {
		if p.err != nil {
			return nil, QueryStats{}, fmt.Errorf("shard %d: %w", j, p.err)
		}
	}
	for _, qs := range stats.PerShard {
		if qs.Strategy == core.StrategyLSH {
			stats.LSHShards++
		} else {
			stats.LinearShards++
		}
		stats.Collisions += qs.Collisions
		stats.Candidates += qs.Candidates
		stats.TotalShardTime += qs.TotalTime()
		if t := qs.TotalTime(); t > stats.MaxShardTime {
			stats.MaxShardTime = t
		}
	}

	out := s.mergeLive(parts)
	stats.Results = len(out)
	stats.WallTime = time.Since(t0)
	return out, stats, nil
}

// mergeLive concatenates the per-shard global-id sets, dropping
// tombstoned ids. Shards never share ids, so no dedup is needed.
func (s *Sharded[P]) mergeLive(parts []shardPart) []int32 {
	n := 0
	for _, p := range parts {
		n += len(p.ids)
	}
	out := make([]int32, 0, n)
	s.tombMu.RLock()
	if len(s.tombs) == 0 {
		for _, p := range parts {
			out = append(out, p.ids...)
		}
	} else {
		for _, p := range parts {
			for _, id := range p.ids {
				if _, dead := s.tombs[id]; !dead {
					out = append(out, id)
				}
			}
		}
	}
	s.tombMu.RUnlock()
	return out
}

// BatchResult is one query's outcome within QueryBatch.
type BatchResult struct {
	IDs   []int32
	Stats QueryStats
}

// DefaultBatchWorkers is the worker count QueryBatch uses for
// workers <= 0: one per shard-fanned query slot (GOMAXPROCS/Shards
// rounded up to at least 1), since each query already fans out one
// goroutine per shard. Serving layers that clamp client-supplied worker
// counts should clamp to this same ceiling.
func (s *Sharded[P]) DefaultBatchWorkers() int {
	w := (runtime.GOMAXPROCS(0) + len(s.shards) - 1) / len(s.shards)
	if w < 1 {
		w = 1
	}
	return w
}

// QueryBatch answers many queries concurrently, running up to workers
// queries at a time (0 means DefaultBatchWorkers). Results are
// positionally aligned with queries.
func (s *Sharded[P]) QueryBatch(queries []P, workers int) []BatchResult {
	// As in Query: the zero options cannot fail.
	results, _ := s.QueryBatchWith(queries, workers, core.QueryOpts{})
	return results
}

// QueryBatchWith is QueryBatch with the overrides o applied to every
// query (see QueryWith). The options are checked once, before any worker
// starts.
func (s *Sharded[P]) QueryBatchWith(queries []P, workers int, o core.QueryOpts) ([]BatchResult, error) {
	o, err := o.Resolve(s.defaults)
	if err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = s.DefaultBatchWorkers()
	}
	results := make([]BatchResult, len(queries))
	errs := make([]error, len(queries))
	core.ForEach(len(queries), workers, func(i int) {
		results[i].IDs, results[i].Stats, errs[i] = s.answer(queries[i], o)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// Append adds points under fresh global ids (returned, assigned from the
// current total upward) and routes them all to the currently smallest
// shard, which is write-locked for the duration; the other S-1 shards
// keep serving. Note that a query fanned out during an append completes
// its other shards but still waits on the appending shard before
// merging, so bulk appends should be split into moderate batches to
// bound query tail latency. Appends serialize with each other (each
// batch lands on one shard anyway). Like core.Index.Append it does not
// retune (k, L).
func (s *Sharded[P]) Append(points []P) ([]int32, error) {
	if len(points) == 0 {
		return nil, nil
	}
	// Hold appendMu across the whole operation so nextID only ever
	// advances for points that are actually stored — a failed core append
	// must not leave phantom ids inflating N().
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	targetIdx := 0
	min := s.shards[0].size()
	for j, st := range s.shards[1:] {
		if n := st.size(); n < min {
			targetIdx, min = j+1, n
		}
	}
	return s.appendToLocked(targetIdx, points, true)
}

// appendToLocked is the shared body of Append and ApplyAppend: append
// points to shard targetIdx under fresh global ids. Caller holds
// appendMu. journal says whether to emit the mutation (Append does;
// ApplyAppend, replaying a journaled mutation, must not).
func (s *Sharded[P]) appendToLocked(targetIdx int, points []P, journal bool) ([]int32, error) {
	target := s.shards[targetIdx]
	base := s.nextID.Load() // only Append writes nextID, and appends serialize
	// Guard the global id space: each shard only enforces its local
	// count, so S shards together could otherwise overflow int32 ids.
	if int64(base)+int64(len(points)) > int64(1)<<31-1 {
		return nil, fmt.Errorf("shard: Append would overflow the int32 id space (%d + %d)", base, len(points))
	}

	target.mu.Lock()
	defer target.mu.Unlock()

	if err := target.ix.Append(points); err != nil {
		return nil, err
	}
	ids := make([]int32, len(points))
	for i := range ids {
		ids[i] = base + int32(i)
	}
	target.ids = append(target.ids, ids...)
	target.appends.Add(int64(len(points)))
	target.gen.Add(1) // still under target.mu: cache entries filled before this append go stale
	// Record the new ids' owning shard before publishing them through
	// nextID, so Delete never sees an id without an owners entry.
	s.tombMu.Lock()
	for range ids {
		s.owners = append(s.owners, int32(targetIdx))
	}
	s.tombMu.Unlock()
	// Journal before publishing through nextID: a Delete can only see
	// these ids after the publish, so no delete frame can precede its
	// append frame in the journal's order.
	if journal && s.journal != nil {
		s.journal.JournalAppend(targetIdx, base, points)
	}
	s.nextID.Add(int32(len(points)))
	return ids, nil
}

// ApplyAppend replays a journaled append on a replica: points join
// shard shardIdx under global ids [base, base+len(points)), bypassing
// smallest-shard routing (the journaled target is authoritative — the
// writer's routing depends on its compaction timing, which a replica
// does not share). A batch that lies entirely below the current
// high-water mark was already absorbed — typically via a snapshot taken
// after the frame was journaled — and is skipped idempotently; a batch
// starting above it means frames were lost, which is an error. Replays
// are never re-journaled.
func (s *Sharded[P]) ApplyAppend(shardIdx int, base int32, points []P) error {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return fmt.Errorf("shard: ApplyAppend to shard %d of %d", shardIdx, len(s.shards))
	}
	if len(points) == 0 || base < 0 {
		return fmt.Errorf("shard: ApplyAppend with %d points at base %d", len(points), base)
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	next := s.nextID.Load()
	if end := int64(base) + int64(len(points)); end <= int64(next) {
		return nil // already applied (snapshot/delta overlap)
	}
	if base != next {
		return fmt.Errorf("shard: ApplyAppend base %d does not meet the high-water mark %d", base, next)
	}
	_, err := s.appendToLocked(shardIdx, points, false)
	return err
}

// size returns the shard's point count (lock-taking; used for routing).
func (st *shardState[P]) size() int {
	st.mu.RLock()
	n := st.ix.N()
	st.mu.RUnlock()
	return n
}

// Delete tombstones the given global ids: they disappear from all future
// reports immediately. Unknown or already-deleted ids are ignored. It
// returns the number of ids newly deleted.
//
// A tombstone alone does not touch the hash tables, so the deleted
// points keep skewing the cost-model inputs (LinearCost's n, bucket
// sizes, sketches) until the shard is compacted. Delete therefore
// triggers Compact on every shard whose dead ratio the call pushes over
// the SetAutoCompact threshold, synchronously — the occasional Delete
// pays the shard rewrite, but queries keep flowing throughout (see
// Compact). Deleted ids are never reused.
func (s *Sharded[P]) Delete(ids []int32) int {
	if len(ids) == 0 {
		return 0
	}
	max := s.nextID.Load()

	s.tombMu.Lock()
	deleted := 0
	touched := make(map[int]struct{}) // shards that absorbed dead points in this call
	var newlyDead []int32             // journal payload: only ids this call tombstoned
	for _, id := range ids {
		if id < 0 || id >= max {
			continue
		}
		if _, dead := s.tombs[id]; dead {
			continue
		}
		s.tombs[id] = struct{}{}
		deleted++
		if s.journal != nil {
			newlyDead = append(newlyDead, id)
		}
		if j := s.owners[id]; j >= 0 {
			s.shardDead[j]++
			touched[int(j)] = struct{}{}
		}
	}
	// Still under tombMu: a cache fill that observes these bumps also
	// observes the tombstones in mergeLive, so its entry is fresh; one
	// that doesn't is stamped with the old epoch and dies.
	for j := range touched {
		s.shards[j].gen.Add(1)
	}
	// Journal still under tombMu: any compaction that sweeps these
	// tombstones reads them under this same lock later, so its compact
	// frame always follows this delete frame.
	if len(newlyDead) > 0 {
		slices.Sort(newlyDead)
		s.journal.JournalDelete(newlyDead)
	}
	s.tombMu.Unlock()

	// Trigger compactions outside tombMu (Compact acquires shard locks;
	// tombMu is never held across a shard-lock acquisition).
	for j := range touched {
		s.maybeCompact(j)
	}
	return deleted
}

// maybeCompact compacts shard j if its dead ratio exceeds the
// auto-compaction threshold. The ratio check is advisory — counters may
// move between the read and the compaction — and a compaction error
// leaves the shard serving its uncompacted (correct, just slower) state,
// so the error is deliberately dropped here; explicit Compact calls get
// it returned.
func (s *Sharded[P]) maybeCompact(j int) {
	s.tombMu.RLock()
	thresh := s.compactThresh
	dead := s.shardDead[j]
	s.tombMu.RUnlock()
	if thresh >= 1 || dead == 0 {
		return
	}
	n := s.shards[j].size()
	if n == 0 || float64(dead)/float64(n) <= thresh {
		return
	}
	s.Compact(j)
}

// SetAutoCompact sets the tombstone-ratio threshold above which Delete
// compacts a shard automatically: a shard is compacted when its
// dead-in-buckets points exceed threshold × its total (live + dead)
// points. threshold <= 0 restores DefaultCompactionThreshold; threshold
// >= 1 disables auto-compaction (explicit Compact/CompactAll still
// work). Safe to call at any time, including concurrently with traffic.
func (s *Sharded[P]) SetAutoCompact(threshold float64) {
	if threshold <= 0 {
		threshold = DefaultCompactionThreshold
	}
	s.tombMu.Lock()
	s.compactThresh = threshold
	s.tombMu.Unlock()
}

// Compact rewrites shard j without its tombstoned points and returns how
// many points it removed. The heavy work — stripping dead ids from every
// bucket, renumbering survivors, rebuilding the per-bucket HLL sketches
// from live ids, all while keeping the drawn hash functions — happens on
// a compacted copy built under the shard's read lock: queries on the
// other S-1 shards are untouched, and queries on shard j keep flowing
// too unless an append routed to shard j arrives mid-rewrite (the
// waiting writer then parks later readers of that shard until the
// rewrite finishes; appends route to the smallest shard, so this is
// rare). The copy is then swapped in under a write lock held just long
// enough to absorb any append that slipped between the two phases and
// flip the pointers.
//
// After Compact the shard's strategy decisions count zero dead points:
// LinearCost uses the live n, no bucket holds a tombstoned id, and the
// sketches estimate over live ids only. Query answers are id-for-id the
// pre-compaction answers minus the deleted points. The compacted ids
// remain tombstoned and reserved — the global id space never shrinks, so
// snapshots and N() keep accounting for the holes, exactly as
// persist.WriteSharded's snapshot-time compaction does.
//
// Compactions of the same shard serialize; Compact may run concurrently
// with queries, appends, deletes, snapshots and compactions of other
// shards. Compacting a shard with no tombstoned points is a cheap no-op.
func (s *Sharded[P]) Compact(j int) (int, error) {
	return s.compactWith(j, nil, true)
}

// CompactExact replays a journaled compaction on a replica: it rewrites
// shard j without exactly the given tombstoned ids (strictly the
// intersection of removed with the shard's still-bucketed tombstones —
// ids the shard does not hold, ids not tombstoned, and ids already
// compacted out are skipped, which makes a replay on top of a snapshot
// that already absorbed the compaction an idempotent no-op). The writer
// journaled the removed set explicitly because which tombstones its
// Compact swept depends on when it ran; a replica re-deriving the set
// from its own tombstones could sweep deletes the writer journaled
// after this compaction, diverging the two bucket states. Replays are
// never re-journaled.
func (s *Sharded[P]) CompactExact(j int, removed []int32) (int, error) {
	if len(removed) == 0 {
		return 0, nil
	}
	pick := make(map[int32]struct{}, len(removed))
	for _, id := range removed {
		pick[id] = struct{}{}
	}
	return s.compactWith(j, pick, false)
}

// compactWith is the shared body of Compact and CompactExact: rewrite
// shard j without its dead points, where pick (nil = every tombstoned
// id, the Compact case) restricts the sweep to an explicit id set.
// journal says whether to emit the mutation.
func (s *Sharded[P]) compactWith(j int, pick map[int32]struct{}, journal bool) (int, error) {
	if j < 0 || j >= len(s.shards) {
		return 0, fmt.Errorf("shard: Compact(%d) with %d shards", j, len(s.shards))
	}
	st := s.shards[j]
	st.compactMu.Lock()
	defer st.compactMu.Unlock()

	// Phase 1 — build the compacted index under the read lock: queries
	// keep flowing everywhere, appends to this shard wait. compactMu
	// guarantees st.ix is not swapped under us.
	st.mu.RLock()
	ix0 := st.ix
	n0 := ix0.N()
	ids0 := st.ids[:n0:n0] // entries [0,n0) are append-only, safe past RUnlock
	dead := make([]bool, n0)
	ndead := 0
	s.tombMu.RLock()
	for l, gid := range ids0 {
		if _, d := s.tombs[gid]; !d {
			continue
		}
		if pick != nil {
			if _, in := pick[gid]; !in {
				continue
			}
		}
		dead[l] = true
		ndead++
	}
	s.tombMu.RUnlock()
	if ndead == 0 {
		st.mu.RUnlock()
		return 0, nil
	}
	nix, err := ix0.CompactStore(dead)
	st.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	newIDs := make([]int32, 0, n0-ndead)
	for l, gid := range ids0 {
		if !dead[l] {
			newIDs = append(newIDs, gid)
		}
	}

	// Phase 2 — swap under a brief write lock. Appends that landed
	// between the phases grew ix0 past n0; absorb that tail into the
	// compacted index (cheap: only the delta is hashed) so no point is
	// lost.
	st.mu.Lock()
	if n1 := st.ix.N(); n1 > n0 {
		if err := nix.Append(st.ix.Points()[n0:n1]); err != nil {
			st.mu.Unlock()
			return 0, err
		}
		newIDs = append(newIDs, st.ids[n0:n1]...)
	}
	st.ix = nix
	st.ids = newIDs
	st.gen.Add(1) // the swapped-in index is a new answer source
	st.mu.Unlock()

	// Phase 3 — bookkeeping: the compacted ids no longer live in any
	// bucket, so they stop counting toward the shard's dead ratio; they
	// stay in tombs forever (the id space keeps its holes).
	s.tombMu.Lock()
	var swept []int32 // journal payload: the ids physically removed
	for l, gid := range ids0 {
		if dead[l] {
			s.owners[gid] = -1
			if journal && s.journal != nil {
				swept = append(swept, gid)
			}
		}
	}
	s.shardDead[j] -= ndead
	s.compactions[j]++
	// Journal still under tombMu so the frame is ordered against the
	// delete frames of the swept ids (which were journaled under this
	// same lock, before phase 1 could observe their tombstones).
	if len(swept) > 0 {
		slices.Sort(swept)
		s.journal.JournalCompact(j, swept)
	}
	s.tombMu.Unlock()
	return ndead, nil
}

// CompactAll compacts every shard in turn and returns the total number
// of points removed. On error the already-compacted shards stay
// compacted.
func (s *Sharded[P]) CompactAll() (int, error) {
	total := 0
	for j := range s.shards {
		n, err := s.Compact(j)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Deleted returns the current tombstone count.
func (s *Sharded[P]) Deleted() int {
	s.tombMu.RLock()
	n := len(s.tombs)
	s.tombMu.RUnlock()
	return n
}

// ShardSizes returns each shard's current point count (including
// tombstoned points, which still occupy buckets).
func (s *Sharded[P]) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for j, st := range s.shards {
		sizes[j] = st.size()
	}
	return sizes
}

// Stats is a point-in-time topology snapshot for monitoring endpoints.
type Stats struct {
	// Shards is the partition count.
	Shards int
	// ShardSizes[j] is shard j's point count, not-yet-compacted
	// tombstones included.
	ShardSizes []int
	// Live is the total live point count, Tombstones the deleted count
	// (compacted or not — deleted ids stay reserved forever).
	Live, Tombstones int
	// DeadInBuckets[j] is shard j's tombstoned-but-not-yet-compacted
	// point count — the deletions still skewing its cost model.
	// DeadTotal sums them.
	DeadInBuckets []int
	DeadTotal     int
	// Compactions[j] counts completed compactions of shard j;
	// CompactionsTotal sums them.
	Compactions      []int64
	CompactionsTotal int64
	// ShardQueries[j] counts queries shard j answered (every fan-out
	// touches every shard, so these normally move in lockstep; they
	// diverge only across membership changes). ShardQueryNanos[j] is the
	// summed estimate+search time shard j spent answering — the fan-out
	// latency attribution: dividing by ShardQueries gives the mean
	// per-shard cost, and a shard far above its peers is the fan-out's
	// critical path. ShardAppends[j] counts points appended to shard j
	// since construction (build-time points are not included).
	ShardQueries    []int64
	ShardQueryNanos []int64
	ShardAppends    []int64
	// CacheEnabled reports whether a result cache is installed (see
	// EnableCache); the remaining cache fields are zero when it is not.
	// CacheHits counts answers served without touching any shard,
	// CacheMisses lookups that fell through to the fan-out (stale-entry
	// evictions included), CacheInvalidations the subset of misses that
	// evicted an entry stamped with an outdated mutation epoch.
	// CacheEntries and CacheCapacity describe the LRU's current fill.
	CacheEnabled                               bool
	CacheHits, CacheMisses, CacheInvalidations int64
	CacheEntries, CacheCapacity                int
	// Store aggregates the shards' point-store stats — layout,
	// quantization sizes and the verification counters summed across
	// shards; the zero value when the shard indexes don't report them.
	Store pointstore.Stats
}

// Stats snapshots the topology.
func (s *Sharded[P]) Stats() Stats {
	st := Stats{
		Shards:          len(s.shards),
		ShardSizes:      s.ShardSizes(),
		Live:            s.N(),
		Tombstones:      s.Deleted(),
		ShardQueries:    make([]int64, len(s.shards)),
		ShardQueryNanos: make([]int64, len(s.shards)),
		ShardAppends:    make([]int64, len(s.shards)),
	}
	for j, sh := range s.shards {
		st.ShardQueries[j] = sh.queries.Load()
		st.ShardQueryNanos[j] = sh.queryNanos.Load()
		st.ShardAppends[j] = sh.appends.Load()
		sh.mu.RLock()
		if ss, ok := sh.ix.(core.StoreStatser); ok {
			st.Store.Add(ss.StoreStats())
		}
		sh.mu.RUnlock()
	}
	s.tombMu.RLock()
	st.DeadInBuckets = append([]int(nil), s.shardDead...)
	st.Compactions = append([]int64(nil), s.compactions...)
	s.tombMu.RUnlock()
	for _, d := range st.DeadInBuckets {
		st.DeadTotal += d
	}
	for _, c := range st.Compactions {
		st.CompactionsTotal += c
	}
	if s.cache != nil {
		st.CacheEnabled = true
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
		st.CacheInvalidations = s.cache.invalidations.Load()
		st.CacheEntries = s.cache.len()
		st.CacheCapacity = s.cache.cap
	}
	return st
}
