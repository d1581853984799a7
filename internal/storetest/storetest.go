// Package storetest is the shared conformance suite for core.Store
// implementations. Every index kind the shard layer can serve — a
// core.Index in each serving mode (classic, multi-probe) and
// covering.Index — must pass it, so the contract the sharding, compaction
// and persistence machinery relies on is pinned in one place instead of
// copy-pasted per package.
//
// Usage, from the implementation's own test package:
//
//	storetest.Run(t, storetest.Harness[vector.Dense]{
//		Name: "multiprobe-l2",
//		New:  func(t *testing.T, pts []vector.Dense, seed uint64) core.Store[vector.Dense] { ... },
//		Data: func(n int, seed uint64) []vector.Dense { ... },
//	})
package storetest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// Harness describes one store implementation under test.
type Harness[P any] struct {
	// Name labels the subtests.
	Name string
	// New builds the store under test over points with the given
	// construction seed. Equal (points, seed) pairs must build stores
	// that answer identically — the append-equivalence subtest builds
	// twice and compares.
	New func(t *testing.T, points []P, seed uint64) core.Store[P]
	// Data generates n deterministic points for the given seed.
	Data func(n int, seed uint64) []P
	// NewQuant optionally builds the same index over an alternative
	// verification store — typically the SQ8-quantized flat layout, or
	// the flat layout when New uses the generic one. When set, the
	// QuantEquivalence subtest pins the store-swap guarantee: for equal
	// (points, seed) the two builds must answer id-identically, at
	// build time and after Append and CompactStore. Nil skips the
	// subtest (e.g. store layouts with no alternative encoding).
	NewQuant func(t *testing.T, points []P, seed uint64) core.Store[P]
	// Pinned lists the per-query overrides the store supports, each with
	// the id-set hash it must reproduce (see QueryOptions). The QueryOptions
	// subtest builds the store over Data(150, 14) with seed 7.
	Pinned []PinnedOverride
}

// batcher is the QueryBatch surface every store in this repository
// provides on top of the minimal core.Store contract.
type batcher[P any] interface {
	QueryBatch(queries []P, workers int) []core.BatchResult
}

// decider is the optional decision-only surface; when present it must
// agree with Query.
type decider[P any] interface {
	DecideStrategy(q P) (core.Strategy, core.QueryStats)
}

// lshQuerier is the forced-LSH surface. The compaction subtest prefers
// it over Query: compaction changes the cost-model inputs, so the hybrid
// decision may legitimately flip to the exact linear scan and report
// points the LSH structure misses — forcing LSH pins the structure
// itself.
type lshQuerier[P any] interface {
	QueryLSH(q P) ([]int32, core.QueryStats)
}

// forcedWith is the forced-path surface under per-query options
// (core.Index provides it in every serving mode).
type forcedWith[P any] interface {
	QueryLSHWith(q P, o core.QueryOpts) ([]int32, core.QueryStats, error)
	DecideStrategyWith(q P, o core.QueryOpts) (core.Strategy, core.QueryStats, error)
}

// query answers via forced LSH when the store provides it, else Query.
func query[P any](st core.Store[P], q P) []int32 {
	if l, ok := st.(lshQuerier[P]); ok {
		ids, _ := l.QueryLSH(q)
		return ids
	}
	ids, _ := st.Query(q)
	return ids
}

// Run exercises the core.Store contract: point exposure, id hygiene,
// append equivalence, batch equivalence (also through shard.Sharded),
// decision consistency and the CompactStore rewrite semantics.
func Run[P any](t *testing.T, h Harness[P]) {
	t.Helper()
	if h.New == nil || h.Data == nil {
		t.Fatalf("storetest: harness %q must set New and Data", h.Name)
	}
	t.Run(h.Name, func(t *testing.T) {
		t.Run("PointsAligned", h.testPointsAligned)
		t.Run("QueryIDsValid", h.testQueryIDsValid)
		t.Run("AppendEquivalence", h.testAppendEquivalence)
		t.Run("AppendEmptyIsNoop", h.testAppendEmpty)
		t.Run("QueryBatchAlignment", h.testQueryBatchAlignment)
		t.Run("DecideStrategyConsistent", h.testDecideStrategy)
		t.Run("CompactStore", h.testCompactStore)
		t.Run("CompactStoreRejectsBadLength", h.testCompactBadLength)
		t.Run("SetCostSwaps", h.testSetCostSwaps)
		t.Run("SetCostRejectsDegenerate", h.testSetCostRejects)
		t.Run("SetCostConcurrentWithQueries", h.testSetCostConcurrent)
		t.Run("QuantEquivalence", h.testQuantEquivalence)
		t.Run("QueryOptions", func(t *testing.T) {
			data := h.Data(150, 14)
			QueryOptions(t, h.New(t, data, 7), h.queries(data), h.Pinned)
		})
		t.Run("ForcedPathsUnderOptions", h.testForcedPaths)
	})
}

// PinnedOverride is one supported per-query override and the HashIDs of
// the id sets the store must report under it over the case's queries.
// The hashes were recorded from the per-mode override methods
// (QueryProbes, QueryRadius) this contract replaced, so they pin the
// one-contract refactor to id-identical answers.
type PinnedOverride struct {
	Opts core.QueryOpts
	Hash uint64
}

// OptionQuerier is the per-query option surface QueryOptions checks:
// every core.Store, and anything layered on stores with its own stats
// type S, such as shard.Sharded.
type OptionQuerier[P, S any] interface {
	Defaults() core.QueryOpts
	Query(q P) ([]int32, S)
	QueryWith(q P, o core.QueryOpts) ([]int32, S, error)
}

// QueryOptions is the conformance case for the per-query option
// contract, over the given queries: the zero options, and every
// supported option spelled out at its built value, answer exactly like
// Query; every pinned override reproduces its recorded id sets; every
// option Defaults leaves unset is rejected with
// core.ErrUnsupportedOption.
func QueryOptions[P, S any](t *testing.T, st OptionQuerier[P, S], queries []P, pinned []PinnedOverride) {
	t.Helper()
	answers := func(o core.QueryOpts) uint64 {
		t.Helper()
		sets := make([][]int32, len(queries))
		for i, q := range queries {
			ids, _, err := st.QueryWith(q, o)
			if err != nil {
				t.Fatalf("QueryWith(%+v): %v", o, err)
			}
			sets[i] = ids
		}
		return HashIDs(sets)
	}
	def := st.Defaults()
	plain := make([][]int32, len(queries))
	for i, q := range queries {
		plain[i], _ = st.Query(q)
	}
	for _, o := range []core.QueryOpts{{}, def} {
		if got, want := answers(o), HashIDs(plain); got != want {
			t.Fatalf("QueryWith(%+v) answers %#x, Query answers %#x", o, got, want)
		}
	}
	for _, p := range pinned {
		if got := answers(p.Opts); got != p.Hash {
			t.Fatalf("QueryWith(%+v) answers %#x, pinned %#x", p.Opts, got, p.Hash)
		}
	}
	for _, c := range []struct {
		opts      core.QueryOpts
		supported bool
	}{
		{core.QueryOpts{Probes: core.Some(3)}, def.Probes.Set},
		{core.QueryOpts{Radius: core.Some(1)}, def.Radius.Set},
	} {
		if _, _, err := st.QueryWith(queries[0], c.opts); !c.supported && !errors.Is(err, core.ErrUnsupportedOption) {
			t.Fatalf("QueryWith(%+v): err = %v, want core.ErrUnsupportedOption", c.opts, err)
		}
	}
}

// queries returns a deterministic query set drawn from the data itself,
// so every store sees non-trivial result sets.
func (h Harness[P]) queries(data []P) []P { return h.queriesN(data, min(20, len(data))) }

// queriesN returns n queries drawn from the data, every 13th point.
func (h Harness[P]) queriesN(data []P, n int) []P {
	qs := make([]P, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, data[(i*13)%len(data)])
	}
	return qs
}

func sorted(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

// testForcedPaths checks that the forced paths honour the same options
// as QueryWith, for the zero options and every pinned override: an
// LSH-path QueryWith answer is QueryLSHWith's, DecideStrategyWith takes
// QueryWith's decision, and on a store whose Defaults set Radius
// (covering — no false negatives, so both paths are exact) QueryLSHWith
// equals QueryWith on every query.
func (h Harness[P]) testForcedPaths(t *testing.T) {
	data := h.Data(150, 14)
	st := h.New(t, data, 7)
	f, ok := st.(forcedWith[P])
	if !ok {
		t.Skip("store has no forced paths under options")
	}
	exact := st.Defaults().Radius.Set
	opts := []core.QueryOpts{{}}
	for _, p := range h.Pinned {
		opts = append(opts, p.Opts)
	}
	for _, o := range opts {
		for i, q := range h.queries(data) {
			ids, stats, err := st.QueryWith(q, o)
			if err != nil {
				t.Fatalf("QueryWith(%+v): %v", o, err)
			}
			lsh, _, err := f.QueryLSHWith(q, o)
			if err != nil {
				t.Fatalf("QueryLSHWith(%+v): %v", o, err)
			}
			if (exact || stats.Strategy == core.StrategyLSH) && !slices.Equal(sorted(ids), sorted(lsh)) {
				t.Fatalf("query %d, %+v: QueryWith (%v) answered %d ids, QueryLSHWith %d", i, o, stats.Strategy, len(ids), len(lsh))
			}
			strat, _, err := f.DecideStrategyWith(q, o)
			if err != nil {
				t.Fatalf("DecideStrategyWith(%+v): %v", o, err)
			}
			if strat != stats.Strategy {
				t.Fatalf("query %d, %+v: DecideStrategyWith = %v, QueryWith took %v", i, o, strat, stats.Strategy)
			}
		}
	}
}

func (h Harness[P]) testPointsAligned(t *testing.T) {
	data := h.Data(120, 1)
	st := h.New(t, data, 7)
	if st.N() != len(data) {
		t.Fatalf("N() = %d, want %d", st.N(), len(data))
	}
	if got := st.Points(); len(got) != len(data) {
		t.Fatalf("Points() has %d entries, want %d", len(got), len(data))
	}
}

func (h Harness[P]) testQueryIDsValid(t *testing.T) {
	data := h.Data(150, 2)
	st := h.New(t, data, 7)
	for qi, q := range h.queries(data) {
		ids, stats := st.Query(q)
		seen := make(map[int32]struct{}, len(ids))
		for _, id := range ids {
			if id < 0 || int(id) >= st.N() {
				t.Fatalf("query %d: id %d outside [0,%d)", qi, id, st.N())
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("query %d: duplicate id %d", qi, id)
			}
			seen[id] = struct{}{}
		}
		if stats.Results != len(ids) {
			t.Fatalf("query %d: stats.Results = %d for %d ids", qi, stats.Results, len(ids))
		}
	}
}

// testAppendEquivalence pins the append contract: ids are assigned from
// N upward and new points are hashed with the already-drawn functions,
// so an index grown by Append answers exactly like one built over the
// whole set with the same seed.
func (h Harness[P]) testAppendEquivalence(t *testing.T) {
	data := h.Data(160, 3)
	half := len(data) / 2
	grown := h.New(t, data[:half:half], 7)
	if err := grown.Append(data[half:]); err != nil {
		t.Fatal(err)
	}
	if grown.N() != len(data) {
		t.Fatalf("N() = %d after append, want %d", grown.N(), len(data))
	}
	whole := h.New(t, data, 7)
	for qi, q := range h.queries(data) {
		// Forced LSH (when available): the hybrid linear fallback answers
		// from the point slice alone and would mask diverging tables.
		a := query(grown, q)
		b := query(whole, q)
		if !slices.Equal(sorted(a), sorted(b)) {
			t.Fatalf("query %d: grown %v != whole %v", qi, sorted(a), sorted(b))
		}
	}
}

func (h Harness[P]) testAppendEmpty(t *testing.T) {
	data := h.Data(60, 4)
	st := h.New(t, data, 7)
	if err := st.Append(nil); err != nil {
		t.Fatalf("Append(nil) = %v", err)
	}
	if st.N() != len(data) {
		t.Fatalf("N() = %d after empty append, want %d", st.N(), len(data))
	}
}

// testQueryBatchAlignment pins batch equivalence, not only alignment:
// every batch result is the single Query's answer — the same sorted ids
// and the same Strategy, Collisions, Candidates, Results and Estimated —
// for batches of 1, 64, 65 and 67 queries (blocks under, at and over
// core.MaxBlock) on 1 and 3 workers, before and after an Append that
// leaves a table overlay live; and so through a two-shard shard.Sharded,
// with tombstones and with the result cache on.
func (h Harness[P]) testQueryBatchAlignment(t *testing.T) {
	data := h.Data(200, 5)
	// 20 appended points stay under the tables' re-freeze share (1/8 of
	// the 180 frozen ids), so the overlay is live for the second check.
	st := h.New(t, data[:180:180], 7)
	b, ok := st.(batcher[P])
	if !ok {
		t.Fatalf("%T does not provide QueryBatch", st)
	}
	check := func(stage string) {
		t.Helper()
		for _, n := range []int{1, 64, 65, 67} {
			queries := h.queriesN(data, n)
			for _, workers := range []int{1, 3} {
				results := b.QueryBatch(queries, workers)
				if len(results) != len(queries) {
					t.Fatalf("%s: %d results for %d queries", stage, len(results), len(queries))
				}
				for i, r := range results {
					ids, stats := st.Query(queries[i])
					where := fmt.Sprintf("%s: batch of %d on %d workers, query %d", stage, n, workers, i)
					sameAnswer(t, where, r.IDs, ids, r.Stats, stats)
				}
			}
		}
	}
	check("built")
	if err := st.Append(data[180:]); err != nil {
		t.Fatal(err)
	}
	check("appended")
	h.testShardedBatch(t, data)
}

// testShardedBatch is the batch equivalence check through a two-shard
// shard.Sharded over h's stores: each QueryBatchWith result equals
// QueryWith's, shard by shard, on the built structure, after an Append
// and with tombstones; with the result cache on, the ids agree whether
// the batch or the single query filled the cache.
func (h Harness[P]) testShardedBatch(t *testing.T, data []P) {
	build := func() *shard.Sharded[P] {
		t.Helper()
		var snaps [2]shard.ShardSnapshot[P]
		var parts [2][]P
		for i, p := range data[:180] {
			parts[i%2] = append(parts[i%2], p)
			snaps[i%2].IDs = append(snaps[i%2].IDs, int32(i))
		}
		for j := range snaps {
			snaps[j].Index = h.New(t, parts[j], uint64(7+j))
		}
		sh, err := shard.Restore(snaps[:], 180, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.SetAutoCompact(1) // keep the tombstones in the buckets
		return sh
	}
	check := func(stage string, sh *shard.Sharded[P]) {
		t.Helper()
		for _, n := range []int{1, 64, 65, 67} {
			queries := h.queriesN(data, n)
			for _, workers := range []int{1, 3} {
				results, err := sh.QueryBatchWith(queries, workers, core.QueryOpts{})
				if err != nil {
					t.Fatalf("%s: QueryBatchWith: %v", stage, err)
				}
				if len(results) != len(queries) {
					t.Fatalf("%s: %d results for %d queries", stage, len(results), len(queries))
				}
				for i, r := range results {
					ids, stats, err := sh.QueryWith(queries[i], core.QueryOpts{})
					if err != nil {
						t.Fatalf("%s: QueryWith: %v", stage, err)
					}
					where := fmt.Sprintf("%s: sharded batch of %d on %d workers, query %d", stage, n, workers, i)
					if !slices.Equal(sorted(r.IDs), sorted(ids)) {
						t.Fatalf("%s: ids %v, QueryWith %v", where, sorted(r.IDs), sorted(ids))
					}
					if r.Stats.CacheHit || stats.CacheHit {
						continue
					}
					if len(r.Stats.PerShard) != len(stats.PerShard) {
						t.Fatalf("%s: %d shard records, QueryWith %d", where, len(r.Stats.PerShard), len(stats.PerShard))
					}
					for j := range stats.PerShard {
						sameStats(t, fmt.Sprintf("%s, shard %d", where, j), r.Stats.PerShard[j], stats.PerShard[j])
					}
					got, want := r.Stats, stats
					if got.LSHShards != want.LSHShards || got.Collisions != want.Collisions || got.Candidates != want.Candidates || got.Results != want.Results {
						t.Fatalf("%s: aggregates %d lsh, %d collisions, %d candidates, %d results; QueryWith %d, %d, %d, %d", where,
							got.LSHShards, got.Collisions, got.Candidates, got.Results, want.LSHShards, want.Collisions, want.Candidates, want.Results)
					}
					if got.WallTime <= 0 || got.MaxShardTime <= 0 {
						t.Fatalf("%s: wall time %v, slowest shard %v; want both > 0", where, got.WallTime, got.MaxShardTime)
					}
				}
			}
		}
	}
	sh := build()
	check("sharded", sh)
	if _, err := sh.Append(data[180:]); err != nil {
		t.Fatal(err)
	}
	check("sharded appended", sh)
	var dead []int32
	for id := int32(0); id < 200; id += 3 {
		dead = append(dead, id)
	}
	sh.Delete(dead)
	check("sharded tombstones", sh)

	cached := build()
	if err := cached.EnableCache(512, func(p P) string { return fmt.Sprintf("%v", p) }); err != nil {
		t.Fatal(err)
	}
	cached.Delete(dead)
	check("cache filled by the batch", cached)
	check("cache hits", cached)
	queries := h.queriesN(data, 67)
	results, _ := cached.QueryBatchWith(queries, 1, core.QueryOpts{})
	for i, r := range results {
		if !r.Stats.CacheHit {
			t.Fatalf("query %d missed a cache its own answer filled", i)
		}
	}
}

// sameAnswer fails unless a batch answer has the ids and the decision of
// the single query's.
func sameAnswer(t *testing.T, where string, got, want []int32, gs, ws core.QueryStats) {
	t.Helper()
	if !slices.Equal(sorted(got), sorted(want)) {
		t.Fatalf("%s: ids %v, Query %v", where, sorted(got), sorted(want))
	}
	sameStats(t, where, gs, ws)
}

// sameStats fails unless two stats record the same decision and work.
func sameStats(t *testing.T, where string, got, want core.QueryStats) {
	t.Helper()
	if got.Strategy != want.Strategy || got.Collisions != want.Collisions || got.Candidates != want.Candidates ||
		got.Results != want.Results || got.Estimated != want.Estimated {
		t.Fatalf("%s: %v, %d collisions, %d candidates, %d results, estimated %v; Query %v, %d, %d, %d, %v", where,
			got.Strategy, got.Collisions, got.Candidates, got.Results, got.Estimated,
			want.Strategy, want.Collisions, want.Candidates, want.Results, want.Estimated)
	}
}

func (h Harness[P]) testDecideStrategy(t *testing.T) {
	data := h.Data(150, 6)
	st := h.New(t, data, 7)
	d, ok := st.(decider[P])
	if !ok {
		t.Fatalf("%T does not provide DecideStrategy", st)
	}
	for qi, q := range h.queries(data) {
		strat, ds := d.DecideStrategy(q)
		_, qs := st.Query(q)
		if strat != qs.Strategy {
			t.Fatalf("query %d: DecideStrategy %v, Query %v", qi, strat, qs.Strategy)
		}
		if ds.Collisions != qs.Collisions {
			t.Fatalf("query %d: decide collisions %d, query %d", qi, ds.Collisions, qs.Collisions)
		}
	}
}

// testCompactStore pins the rewrite contract: same concrete type back,
// survivors rank-renumbered, answers = pre-compaction answers minus the
// dead points, and the receiver left fully usable.
func (h Harness[P]) testCompactStore(t *testing.T) {
	data := h.Data(160, 8)
	st := h.New(t, data, 7)
	dead := make([]bool, len(data))
	remap := make([]int32, len(data))
	live := int32(0)
	for i := range dead {
		if i%4 == 0 {
			dead[i] = true
			remap[i] = -1
			continue
		}
		remap[i] = live
		live++
	}
	queries := h.queries(data)
	pre := make([][]int32, len(queries))
	for i, q := range queries {
		pre[i] = query(st, q)
	}

	compacted, err := st.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reflect.TypeOf(compacted), reflect.TypeOf(st); got != want {
		t.Fatalf("CompactStore returned %v, want the receiver's concrete type %v", got, want)
	}
	if compacted.N() != int(live) {
		t.Fatalf("compacted N = %d, want %d", compacted.N(), live)
	}
	for qi, q := range queries {
		post := query(compacted, q)
		want := make([]int32, 0, len(pre[qi]))
		for _, id := range pre[qi] {
			if !dead[id] {
				want = append(want, remap[id])
			}
		}
		if !slices.Equal(sorted(post), sorted(want)) {
			t.Fatalf("query %d: compacted %v, want %v", qi, sorted(post), sorted(want))
		}
		// The receiver must still answer its original result set.
		again := query(st, q)
		if !slices.Equal(sorted(again), sorted(pre[qi])) {
			t.Fatalf("query %d: receiver answers changed after CompactStore", qi)
		}
	}
}

func (h Harness[P]) testCompactBadLength(t *testing.T) {
	data := h.Data(40, 9)
	st := h.New(t, data, 7)
	if _, err := st.CompactStore(make([]bool, len(data)+1)); err == nil {
		t.Fatal("CompactStore accepted a dead slice of the wrong length")
	}
}

// testQuantEquivalence pins the store-swap guarantee: swapping the
// verification store (exact generic/flat vs SQ8-quantized) must never
// change an answer. Both builds share (points, seed), so their hash
// tables, sketches and cost inputs are identical — any id divergence is
// a verification bug, not a legitimate strategy flip. Compared via both
// the hybrid Query (exercising whichever arm the shared decision picks,
// including the store's linear ScanRadius) and forced LSH when
// available (exercising VerifyRadius), at build time, after Append and
// after CompactStore.
func (h Harness[P]) testQuantEquivalence(t *testing.T) {
	if h.NewQuant == nil {
		t.Skip("harness has no alternative-store build")
	}
	data := h.Data(180, 13)
	half := len(data) * 2 / 3
	exact := h.New(t, data[:half:half], 7)
	quant := h.NewQuant(t, data[:half:half], 7)

	compare := func(stage string, a, b core.Store[P]) {
		t.Helper()
		for qi, q := range h.queries(data) {
			ea, _ := a.Query(q)
			eb, _ := b.Query(q)
			if !slices.Equal(sorted(ea), sorted(eb)) {
				t.Fatalf("%s: query %d: exact %v != quant %v", stage, qi, sorted(ea), sorted(eb))
			}
			if !slices.Equal(sorted(query(a, q)), sorted(query(b, q))) {
				t.Fatalf("%s: query %d: forced-LSH answers diverge", stage, qi)
			}
		}
	}
	compare("build", exact, quant)

	if err := exact.Append(data[half:]); err != nil {
		t.Fatal(err)
	}
	if err := quant.Append(data[half:]); err != nil {
		t.Fatal(err)
	}
	compare("append", exact, quant)

	dead := make([]bool, len(data))
	for i := range dead {
		dead[i] = i%3 == 0
	}
	ce, err := exact.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := quant.CompactStore(dead)
	if err != nil {
		t.Fatal(err)
	}
	compare("compact", ce, cq)
}

// testSetCostSwaps pins the swap contract: a usable model is adopted
// exactly (Cost() returns it), and the decision follows the new
// constants — an absurdly expensive α forces the linear scan, an
// absurdly cheap one hands queries with fewer candidates than points
// back to the LSH path.
func (h Harness[P]) testSetCostSwaps(t *testing.T) {
	data := h.Data(150, 10)
	st := h.New(t, data, 7)
	d, ok := st.(decider[P])
	if !ok {
		t.Fatalf("%T does not provide DecideStrategy", st)
	}
	want := core.CostModel{Alpha: 2.5, Beta: 7.25}
	if err := st.SetCost(want); err != nil {
		t.Fatalf("SetCost(%+v) = %v", want, err)
	}
	if got := st.Cost(); got != want {
		t.Fatalf("Cost() = %+v after SetCost, want %+v", got, want)
	}
	// Queries drawn from the data collide at least with themselves, so a
	// huge α makes every LSHCost beat β·n and the decision must be LINEAR.
	if err := st.SetCost(core.CostModel{Alpha: 1e12, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	q := h.queries(data)[0]
	if strat, _ := d.DecideStrategy(q); strat != core.StrategyLinear {
		t.Fatalf("strategy = %v under α = 1e12, want LINEAR", strat)
	}
	// With α ≈ 0 the comparison reduces to candidates vs n, so any query
	// whose candidate set is a strict subset of the data goes to LSH.
	if err := st.SetCost(core.CostModel{Alpha: 1e-12, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	for _, q := range h.queries(data) {
		strat, qs := d.DecideStrategy(q)
		if qs.EstCandidates < float64(st.N()) {
			if strat != core.StrategyLSH {
				t.Fatalf("strategy = %v under α ≈ 0 with estimate %.1f < n = %d, want LSH",
					strat, qs.EstCandidates, st.N())
			}
			return
		}
	}
	t.Skip("every query's candidate estimate covered the whole store; LSH flip unobservable")
}

// testSetCostRejects pins the degenerate-model guard: models that are
// not Usable() must be refused and must leave the serving model
// untouched — a refitter bug can never load garbage constants.
func (h Harness[P]) testSetCostRejects(t *testing.T) {
	data := h.Data(60, 11)
	st := h.New(t, data, 7)
	before := st.Cost()
	for _, bad := range []core.CostModel{
		{},
		{Alpha: 0, Beta: 1},
		{Alpha: 1, Beta: 0},
		{Alpha: -1, Beta: 1},
		{Alpha: math.NaN(), Beta: 1},
		{Alpha: 1, Beta: math.Inf(1)},
	} {
		if err := st.SetCost(bad); err == nil {
			t.Fatalf("SetCost(%+v) accepted a degenerate model", bad)
		}
		if got := st.Cost(); got != before {
			t.Fatalf("Cost() = %+v after rejected SetCost(%+v), want untouched %+v", got, bad, before)
		}
	}
}

// testSetCostConcurrent exercises the one exemption from the
// single-writer contract: SetCost racing queries and other SetCost
// calls must stay safe (run under -race) and every query must observe
// one of the two models' decisions, never a torn mix.
func (h Harness[P]) testSetCostConcurrent(t *testing.T) {
	data := h.Data(150, 12)
	st := h.New(t, data, 7)
	queries := h.queries(data)
	models := [2]core.CostModel{
		{Alpha: 1e12, Beta: 1},
		{Alpha: 1e-12, Beta: 1},
	}
	// One synchronous swap first: the build-time model is gone before the
	// race starts, so whatever Cost() reports afterwards must be one of
	// the two racing models even if the scheduler starves the swappers.
	if err := st.SetCost(models[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.SetCost(models[(w+i)%2]); err != nil {
					t.Errorf("SetCost: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		for _, q := range queries {
			st.Query(q)
		}
	}
	close(stop)
	wg.Wait()
	if got := st.Cost(); got != models[0] && got != models[1] {
		t.Fatalf("Cost() = %+v after concurrent swaps, want one of %+v", got, models)
	}
}

// HashIDs folds the id sets a query list reported (one set per query, in
// query order) into one FNV-1a hash: every set is sorted and prefixed by
// its length, so the hash pins exactly which ids each query reported.
func HashIDs(sets [][]int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, ids := range sets {
		binary.LittleEndian.PutUint32(b[:], uint32(len(ids)))
		h.Write(b[:])
		for _, id := range sorted(ids) {
			binary.LittleEndian.PutUint32(b[:], uint32(id))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
