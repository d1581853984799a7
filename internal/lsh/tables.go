package lsh

import (
	"cmp"
	"fmt"
	"iter"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/hashutil"
	"repro/internal/hll"
	"repro/internal/rng"
)

// Bucket is a view of one hash-table bucket: the ids of the points hashed
// into it, ascending, and — if the bucket is at least Params.HLLThreshold
// points large — the registers of a pre-built HyperLogLog over those ids
// (Algorithm 1 of the paper). A view aliases its table's storage: it is
// read-only and valid until the next Append.
//
// Small buckets carry no sketch — the paper's space-saving trick (§3.2):
// their few ids are folded into the query-time merged sketch directly,
// gathered from per-id entries (hll.Entry, one per point, computed once
// per table set) at one load and one max per id. The ids appended to a
// bucket since its table was frozen are folded the same way: a lookup
// hands them out as a view of their own, which carries no sketch.
//
// A view of a bucket in a narrow slab holds its ids as uint16 (Narrow)
// and leaves IDs nil; every other view holds them in IDs. Readers that
// walk the ids take both (Len, AppendIDs, or one generic body over ID);
// the Table map view always fills IDs.
type Bucket struct {
	IDs    []int32
	Sketch []uint8
	narrow []uint16
}

// Narrow returns the ids of a view into a narrow slab, and nil for any
// other view, whose ids are IDs.
func (b Bucket) Narrow() []uint16 { return b.narrow }

// Len returns the bucket's id count.
func (b Bucket) Len() int { return len(b.IDs) + len(b.narrow) }

// AppendIDs appends the bucket's ids to dst as int32 and returns it.
func (b Bucket) AppendIDs(dst []int32) []int32 {
	for _, id := range b.narrow {
		dst = append(dst, int32(id))
	}
	return append(dst, b.IDs...)
}

// Params configures table construction.
type Params struct {
	// K is the number of concatenated base functions per table (use SolveK
	// for the paper's setting).
	K int
	// L is the number of hash tables. The paper fixes L = 50.
	L int
	// HLLRegisters is m, the register count per bucket sketch; the paper
	// uses 32–128. Must be a power of two in [hll.MinM, hll.MaxM].
	HLLRegisters int
	// HLLThreshold is the minimum bucket size that gets a pre-built
	// sketch. Zero means HLLRegisters (the paper's "#points < m" rule).
	HLLThreshold int
	// Seed makes construction deterministic.
	Seed uint64
}

func (p Params) withDefaults() Params {
	if p.HLLThreshold == 0 {
		p.HLLThreshold = p.HLLRegisters
	}
	return p
}

func (p Params) validate() error {
	if p.K < 1 {
		return fmt.Errorf("lsh: Params.K = %d, want >= 1", p.K)
	}
	if p.L < 1 {
		return fmt.Errorf("lsh: Params.L = %d, want >= 1", p.L)
	}
	if m := p.HLLRegisters; m < hll.MinM || m > hll.MaxM || m&(m-1) != 0 {
		return fmt.Errorf("lsh: Params.HLLRegisters = %d, want a power of two in [%d, %d]",
			p.HLLRegisters, hll.MinM, hll.MaxM)
	}
	if p.HLLThreshold < 0 {
		return fmt.Errorf("lsh: Params.HLLThreshold = %d, want >= 0", p.HLLThreshold)
	}
	return nil
}

// Table is a map view of one of the L hash tables: its hasher and every
// bucket under its key. Tables.Table builds it on demand for tracing and
// white-box tests; nothing on the serving or persistence paths does.
type Table[P any] struct {
	Hasher  Hasher[P]
	Buckets map[uint64]*Bucket
}

// table is one of the L hash tables: its hasher, its frozen buckets and
// the overlay of ids appended since they were frozen. The Append that
// takes the appended ids past 1/refreezeShare of the slab's ids folds
// the overlay back into a new slab.
type table[P any] struct {
	hasher   Hasher[P]
	slab     Slab
	over     map[uint64][]int32       // the ids appended to each bucket since the freeze
	appended int                      // ids appended since the slab was frozen
	overSize int64                    // the overlay's bytes (see Memory)
	view     atomic.Pointer[Table[P]] // Table's map view; nil until asked for
}

// refreezeShare bounds the overlay: the fold costs one slab copy per
// slab.nids()/refreezeShare appended ids.
const refreezeShare = 8

// appendOverlay appends the ids appended to key's bucket since the
// freeze to bs, as one more view without a sketch, when there are any.
// Readers take it and the frozen part before it as one bucket: the ids
// come in the bucket's order and their sizes sum to its size, and a
// merge folds the appended ids into the frozen part's registers, which
// gives the whole bucket's (HLL registers are a max over the ids,
// however they are grouped). The overlay is read only when it has
// entries.
func (tb *table[P]) appendOverlay(bs []Bucket, key uint64) []Bucket {
	if len(tb.over) == 0 {
		return bs
	}
	if ids := tb.over[key]; ids != nil {
		bs = append(bs, Bucket{IDs: ids[:len(ids):len(ids)]})
	}
	return bs
}

// sketched reports whether a bucket with frozen part frozen and
// appended more ids carries a sketch once whole: when the frozen part
// does, or when the whole bucket reaches the threshold.
func sketched(frozen Bucket, appended int, p Params) bool {
	return frozen.Sketch != nil || frozen.Len()+appended >= p.HLLThreshold
}

// all yields every bucket of the table whole, in ascending order of
// Mix64(key), the slab order. A bucket with appended ids is yielded as
// a fresh copy of its frozen and appended ids and, when it is sketched,
// a fresh sketch over them all: the frozen part merged and the appended
// ids folded through ents, which must cover every id of the table. With
// ents nil such a bucket carries no sketch, for readers of ids alone.
func (tb *table[P]) all(p Params, ents *idEntries) iter.Seq2[uint64, Bucket] {
	return func(yield func(uint64, Bucket) bool) {
		s := &tb.slab
		over := make([]uint64, 0, len(tb.over))
		for k := range tb.over {
			over = append(over, k)
		}
		slices.SortFunc(over, func(a, b uint64) int { return cmp.Compare(hashutil.Mix64(a), hashutil.Mix64(b)) })
		i := 0
		for _, k := range over {
			h := hashutil.Mix64(k)
			for ; i < s.len() && hashutil.Mix64(s.heads[i].key) < h; i++ {
				if !yield(s.heads[i].key, s.bucket(i)) {
					return
				}
			}
			var frozen Bucket
			if i < s.len() && s.heads[i].key == k {
				frozen = s.bucket(i) // yielded whole below
				i++
			}
			appended := tb.over[k]
			ids := frozen.AppendIDs(make([]int32, 0, frozen.Len()+len(appended)))
			b := Bucket{IDs: append(ids, appended...)}
			if ents != nil && sketched(frozen, len(appended), p) {
				sk := hll.New(p.HLLRegisters)
				mergeBucket(sk, &frozen, ents)
				foldIDs(sk, ents, appended)
				b.Sketch = sk.Registers()
			}
			if !yield(k, b) {
				return
			}
		}
		for ; i < s.len(); i++ {
			if !yield(s.heads[i].key, s.bucket(i)) {
				return
			}
		}
	}
}

// rebuild writes the table's buckets into a new slab over ids in [0, n),
// whose width it picks from n. With remap nil it copies them, sketches
// included (folding the overlay back). Otherwise every id is renumbered
// through remap, emptied buckets vanish, and the sketches are rebuilt
// over the survivors under the usual threshold (HLLs cannot un-absorb a
// deletion, so rebuilding is the only sound way to forget). ents must
// cover the ids before the renumbering, which include every new id.
func (tb *table[P]) rebuild(remap []int32, p Params, n int, ents *idEntries) Slab {
	var kept []int32
	survivors := func(b Bucket) Bucket {
		if remap == nil {
			return b
		}
		if b.narrow != nil {
			kept = remapIDs(kept[:0], b.narrow, remap)
		} else {
			kept = remapIDs(kept[:0], b.IDs, remap)
		}
		return Bucket{IDs: kept}
	}
	// Without a remap the buckets and their sketches are the extent's;
	// with one, the survivors' sketches are rebuilt below, so all need
	// not build the overlay's (src stays nil).
	var src *idEntries
	var buckets, ids, sketches int
	if remap == nil {
		src = ents
		buckets, ids, sketches = tb.extent(p)
	} else {
		for _, b := range tb.all(p, nil) {
			if c := survivors(b).Len(); c > 0 {
				buckets, ids = buckets+1, ids+c
				if c >= p.HLLThreshold {
					sketches++
				}
			}
		}
	}
	w := newSlabBuilder(p.HLLRegisters, narrowFor(n), buckets, ids, sketches)
	scratch := hll.New(p.HLLRegisters)
	for key, b := range tb.all(p, src) {
		b = survivors(b)
		if b.Len() == 0 {
			continue
		}
		if remap != nil {
			b.Sketch = sketchOf(b.IDs, p, scratch, ents)
		}
		if b.narrow != nil {
			addIDs(w, key, b.narrow, b.Sketch)
		} else {
			addIDs(w, key, b.IDs, b.Sketch)
		}
	}
	return w.finish()
}

// remapIDs appends the new ids of the survivors among ids to kept.
func remapIDs[S ID](kept []int32, ids []S, remap []int32) []int32 {
	for _, id := range ids {
		if nid := remap[id]; nid >= 0 {
			kept = append(kept, nid)
		}
	}
	return kept
}

// Tables is the paper's Algorithm-1 data structure: L hash tables whose
// buckets carry HyperLogLog sketches, each table frozen into a Slab. It
// is safe for concurrent readers; Append is the single writer.
type Tables[P any] struct {
	params Params
	tables []table[P]
	n      int
	ents   idEntries
}

// idEntries holds hll.Entry(id, m) for every id in [0, n) of a table
// set of m-register sketches: as uint16 when m ≤ 256 (narrow), as
// uint32 above (wide), the other nil. An entry depends on its id and m
// alone, so entries are never persisted: Build and a load compute them,
// Append extends them and Compact keeps the survivors' prefix.
type idEntries struct {
	m      int
	narrow []uint16
	wide   []uint32
}

// entriesFor returns the entries of ids in [0, n) for m registers.
func entriesFor(m, n int) idEntries { return idEntries{m: m}.grow(n) }

// grow returns e extended to the ids in [0, n).
func (e idEntries) grow(n int) idEntries {
	if e.m <= 256 {
		e.narrow = appendEntries(e.narrow, e.m, n)
	} else {
		e.wide = appendEntries(e.wide, e.m, n)
	}
	return e
}

// appendEntries appends the entries of ids len(dst)..n-1 to dst.
func appendEntries[E uint16 | uint32](dst []E, m, n int) []E {
	dst = slices.Grow(dst, n-len(dst))
	for id := len(dst); id < n; id++ {
		dst = append(dst, E(hll.Entry(uint64(id), m)))
	}
	return dst
}

// prefix returns the entries of the ids in [0, n). They share e's
// array, which an Append to either never writes: a grow of the prefix
// reallocates.
func (e idEntries) prefix(n int) idEntries {
	if e.m <= 256 {
		e.narrow = e.narrow[:n:n]
	} else {
		e.wide = e.wide[:n:n]
	}
	return e
}

// Build draws L hashers of k base functions from fam, each from its own
// seed split off p.Seed, and builds the tables over points with them
// (see BuildWith). It returns an error on invalid parameters.
func Build[P any](points []P, fam Family[P], p Params) (*Tables[P], error) {
	if err := p.withDefaults().validate(); err != nil {
		return nil, err
	}
	seeder := rng.New(p.Seed)
	seeds := make([]uint64, p.L)
	for j := range seeds {
		seeds[j] = seeder.Uint64()
	}
	hashers := make([]Hasher[P], p.L)
	parallel(p.L, func(j int) { hashers[j] = fam.NewHasher(p.K, rng.New(seeds[j])) })
	return BuildWith(points, hashers, p)
}

// BuildWith hashes every point into one table per hasher (len(hashers)
// must be p.L, each of p.K base functions) and attaches sketches to
// large buckets: each table is sorted into its slab in one pass.
// Construction parallelizes across tables. It returns an error on
// invalid parameters or an empty point set.
func BuildWith[P any](points []P, hashers []Hasher[P], p Params) (*Tables[P], error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(hashers) != p.L {
		return nil, fmt.Errorf("lsh: BuildWith with %d hashers, Params.L = %d", len(hashers), p.L)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("lsh: Build on empty point set")
	}
	if len(points) > 1<<31-1 {
		return nil, fmt.Errorf("lsh: Build on %d points exceeds int32 id space", len(points))
	}

	t := &Tables[P]{params: p, tables: make([]table[P], p.L), n: len(points), ents: entriesFor(p.HLLRegisters, len(points))}
	var base KeyScratch // the points' norms, shared read-only by every table
	base.begin(points)
	hashEvals.Add(uint64(p.L * len(points)))
	parallel(p.L, func(j int) {
		tb := &t.tables[j]
		tb.hasher = hashers[j]
		tb.slab = buildSlab(points, tb.hasher, p, base.norms, &t.ents)
	})
	return t, nil
}

// parallel runs fn(0..n-1) on up to GOMAXPROCS goroutines.
func parallel(n int, fn func(j int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				fn(j)
			}
		}()
	}
	for j := 0; j < n; j++ {
		next <- j
	}
	close(next)
	wg.Wait()
}

// RestoreTables reassembles a Tables from decoded parts (e.g. a
// persisted snapshot): the construction parameters, the L hashers, each
// table's frozen buckets (a nil slab is an empty table), and the indexed
// point count n. Unlike Build, n may be 0 (a fully compacted shard).
// Callers are responsible for bucket ids lying in [0, n) — persist
// validates them while decoding.
func RestoreTables[P any](p Params, hashers []Hasher[P], slabs []*Slab, n int) (*Tables[P], error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(hashers) != p.L || len(slabs) != p.L {
		return nil, fmt.Errorf("lsh: RestoreTables with %d hashers and %d slabs, Params.L = %d", len(hashers), len(slabs), p.L)
	}
	if n < 0 || n > 1<<31-1 {
		return nil, fmt.Errorf("lsh: RestoreTables with n = %d, want in [0, 2^31)", n)
	}
	t := &Tables[P]{params: p, tables: make([]table[P], p.L), n: n, ents: entriesFor(p.HLLRegisters, n)}
	for j, h := range hashers {
		if h == nil {
			return nil, fmt.Errorf("lsh: RestoreTables table %d has no hasher", j)
		}
		if h.K() != p.K {
			return nil, fmt.Errorf("lsh: RestoreTables table %d hasher has k = %d, Params.K = %d", j, h.K(), p.K)
		}
		t.tables[j].hasher = h
		switch s := slabs[j]; {
		case s == nil:
			t.tables[j].slab = emptySlab(p.HLLRegisters)
		case s.m != p.HLLRegisters:
			return nil, fmt.Errorf("lsh: RestoreTables table %d has %d-register sketches, Params.HLLRegisters = %d", j, s.m, p.HLLRegisters)
		default:
			t.tables[j].slab = *s
		}
	}
	return t, nil
}

// Append hashes additional points into every table, assigning them ids
// starting at the current N. It writes no frozen bucket and no sketch:
// the ids appended to a bucket go to the table's overlay, and a merge
// folds them into the frozen part's registers, which gives the whole
// bucket's (Algorithm 1 is fully incremental — HLLs only ever absorb
// insertions). Append must not run concurrently with lookups; the
// caller synchronizes index mutation.
func (t *Tables[P]) Append(points []P) error {
	if len(points) == 0 {
		return nil
	}
	if t.n+len(points) > 1<<31-1 {
		return fmt.Errorf("lsh: Append would exceed int32 id space")
	}
	keys := make([]uint64, len(points))
	var s KeyScratch
	s.begin(points)
	hashEvals.Add(uint64(len(t.tables) * len(points)))
	t.ents = t.ents.grow(t.n + len(points))
	for j := range t.tables {
		tb := &t.tables[j]
		tb.view.Store(nil)
		keysOf(tb.hasher, points, keys, &s)
		if tb.over == nil {
			tb.over = make(map[uint64][]int32)
		}
		for i, key := range keys {
			ids := tb.over[key]
			if ids == nil {
				tb.overSize += overBucketBytes
			}
			c := cap(ids)
			ids = append(ids, int32(t.n+i))
			tb.overSize += 4 * int64(cap(ids)-c)
			tb.over[key] = ids
		}
		tb.appended += len(points)
		if tb.appended*refreezeShare > tb.slab.nids() {
			tb.slab = tb.rebuild(nil, t.params, t.n+len(points), &t.ents)
			tb.over, tb.appended, tb.overSize = nil, 0, 0
		}
	}
	t.n += len(points)
	return nil
}

// Compact rewrites the tables without the dropped points: remap[old] is
// the new id of surviving point old, or -1 for a dropped point, and live
// is the survivor count (the number of non-negative remap entries, which
// must form exactly 0..live-1). It returns a new Tables sharing the drawn
// hash functions — survivors land in the same buckets under the same
// keys, so answers over the compacted tables are the original answers
// minus the dropped points, with no re-hashing of surviving points.
// Every table, overlay included, is written into a new slab: bucket id
// lists are rewritten, empty buckets are removed, and per-bucket sketches
// are rebuilt from the surviving ids under the usual size threshold. The
// receiver is not modified and remains valid; callers swap the result in
// under their own synchronization.
//
// persist uses the same rewrite when it compacts tombstoned points out of
// a snapshot, so online compaction and snapshot compaction produce
// identical bucket and sketch state for the same survivor set.
func (t *Tables[P]) Compact(remap []int32, live int) (*Tables[P], error) {
	if len(remap) != t.n {
		return nil, fmt.Errorf("lsh: Compact with %d remap entries for %d points", len(remap), t.n)
	}
	if live < 0 || live > t.n {
		return nil, fmt.Errorf("lsh: Compact with live = %d, want in [0, %d]", live, t.n)
	}
	survivors := 0
	last := int32(-1)
	for old, nid := range remap {
		if nid < -1 || int(nid) >= live {
			return nil, fmt.Errorf("lsh: Compact remap[%d] = %d outside [-1, %d)", old, nid, live)
		}
		if nid >= 0 {
			// Rank renumbering means the non-negative entries are exactly
			// 0..live-1 in order; anything else (duplicates, gaps,
			// reordering) would silently corrupt the rewritten buckets.
			if nid <= last {
				return nil, fmt.Errorf("lsh: Compact remap[%d] = %d is not rank renumbering (previous survivor id %d)", old, nid, last)
			}
			last = nid
			survivors++
		}
	}
	if survivors != live {
		return nil, fmt.Errorf("lsh: Compact remap has %d survivors, live = %d", survivors, live)
	}

	nt := &Tables[P]{params: t.params, tables: make([]table[P], len(t.tables)), n: live, ents: t.ents.prefix(live)}
	parallel(len(t.tables), func(j int) {
		nt.tables[j].hasher = t.tables[j].hasher
		nt.tables[j].slab = t.tables[j].rebuild(remap, t.params, live, &t.ents)
	})
	return nt, nil
}

// N returns the number of indexed points.
func (t *Tables[P]) N() int { return t.n }

// Params returns the construction parameters (with defaults applied).
func (t *Tables[P]) Params() Params { return t.params }

// L returns the number of tables.
func (t *Tables[P]) L() int { return len(t.tables) }

// Hasher returns table j's hash function.
func (t *Tables[P]) Hasher(j int) Hasher[P] { return t.tables[j].hasher }

// SortedBuckets yields table j's buckets in ascending key order — the
// order snapshots store them in. It radix-sorts the keys, each with the
// position of its bucket: in the slab, or, while an overlay is live, in
// the order of all, whose buckets are then kept aside to be yielded by
// position.
func (t *Tables[P]) SortedBuckets(j int) iter.Seq2[uint64, Bucket] {
	tb := &t.tables[j]
	return func(yield func(uint64, Bucket) bool) {
		keys := make([]keyAt, 0, tb.slab.len()+len(tb.over))
		bucket := tb.slab.bucket
		if len(tb.over) == 0 {
			for i, h := range tb.slab.heads[:tb.slab.len()] {
				keys = append(keys, keyAt{h.key, uint32(i)})
			}
		} else {
			var kept []Bucket
			for k, b := range tb.all(t.params, &t.ents) {
				keys = append(keys, keyAt{k, uint32(len(kept))})
				kept = append(kept, b)
			}
			bucket = func(i int) Bucket { return kept[i] }
		}
		for _, x := range sortKeys(keys, make([]keyAt, len(keys))) {
			if !yield(x.key, bucket(int(x.at))) {
				return
			}
		}
	}
}

// Extent returns the size of what SortedBuckets(j) yields: the bucket
// count, the id count and the number of buckets that carry a sketch.
func (t *Tables[P]) Extent(j int) (buckets, ids, sketches int) {
	return t.tables[j].extent(t.params)
}

// extent returns the size of what all yields. It reads the slab's sizes
// and, for a bucket with appended ids, whether it is sketched once
// whole, which needs no registers.
func (tb *table[P]) extent(p Params) (buckets, ids, sketches int) {
	s := &tb.slab
	buckets, ids, sketches = s.len(), s.nids()+tb.appended, len(s.regs)/s.m
	for k, appended := range tb.over {
		var frozen Bucket
		if at := s.find(k); at >= 0 {
			frozen = s.bucket(at)
		} else {
			buckets++
		}
		if frozen.Sketch == nil && sketched(frozen, len(appended), p) {
			sketches++
		}
	}
	return buckets, ids, sketches
}

// keyAt is a bucket key and the position of its bucket.
type keyAt struct {
	key uint64
	at  uint32
}

// sortKeys sorts s by key through tmp (of len(s)) and returns the sorted
// slice, which is s or tmp. It is an MSD radix sort on 11-bit digits
// read from the highest bit on which the keys differ down: one counting
// pass scatters the keys into 2 048 runs, each of which is sorted by
// insertion or comparison when it is short and on its next digit
// otherwise. The hashed keys of most tables spread evenly, so one pass
// leaves runs of a few keys; keys that share their high bits
// (bit-sampling keys, covering masks) skip them, and each level of runs
// agrees on 11 more bits.
func sortKeys(s, tmp []keyAt) []keyAt {
	const bits11, tiny, short = 11, 16, 256
	switch {
	case len(s) <= tiny:
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j].key < s[j-1].key; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s
	case len(s) <= short:
		slices.SortFunc(s, func(a, b keyAt) int { return cmp.Compare(a.key, b.key) })
		return s
	}
	diff := uint64(0)
	for _, x := range s[1:] {
		diff |= x.key ^ s[0].key
	}
	if diff == 0 {
		return s
	}
	shift := max(bits.Len64(diff)-bits11, 0)
	digit := func(key uint64) uint64 { return key >> shift & (1<<bits11 - 1) }
	var start [1<<bits11 + 1]uint32
	for _, x := range s {
		start[digit(x.key)+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	next := start
	for _, x := range s {
		d := digit(x.key)
		tmp[next[d]] = x
		next[d]++
	}
	for d := range 1 << bits11 {
		if lo, hi := start[d], start[d+1]; hi-lo > 1 {
			if run := sortKeys(tmp[lo:hi], s[lo:hi]); &run[0] != &tmp[lo] {
				copy(tmp[lo:hi], run)
			}
		}
	}
	return tmp
}

// Table returns a map view of table j, built on the first call after
// construction or the last Append. It serves tracing and white-box tests;
// lookups go through LookupKeys and ProbeInto, which need no view. Every
// bucket of the view holds its ids in IDs, copied to int32 from a narrow
// slab.
func (t *Tables[P]) Table(j int) *Table[P] {
	tb := &t.tables[j]
	if v := tb.view.Load(); v != nil {
		return v
	}
	buckets := make([]Bucket, 0, tb.slab.len()+len(tb.over))
	wide := make([]int32, 0, len(tb.slab.narrow)) // the narrow buckets' ids
	v := &Table[P]{Hasher: tb.hasher, Buckets: make(map[uint64]*Bucket, cap(buckets))}
	for k, b := range tb.all(t.params, &t.ents) {
		if b.narrow != nil {
			at := len(wide)
			wide = b.AppendIDs(wide)
			b = Bucket{IDs: wide[at:len(wide):len(wide)], Sketch: b.Sketch}
		}
		buckets = append(buckets, b)
		v.Buckets[k] = &buckets[len(buckets)-1]
	}
	tb.view.CompareAndSwap(nil, v)
	return tb.view.Load()
}

// Viewed reports whether any table's map view (Table) exists.
func (t *Tables[P]) Viewed() bool {
	for j := range t.tables {
		if t.tables[j].view.Load() != nil {
			return true
		}
	}
	return false
}

// Scratch is a query's reusable lookup state: the bucket views the last
// lookup returned, the keys it hashed and their directory runs. The zero
// value is ready to use; reusing one keeps lookups allocation-free in
// steady state.
type Scratch struct {
	Buckets []Bucket
	keys    []uint64
	ends    []int // table i's keys end at keys[ends[i]]
	runs    []span
}

// Lookup returns the buckets of q in all L tables, as a block of one;
// tables where q's bucket is empty contribute nothing, and a bucket with
// ids appended since its table was frozen comes as two views, frozen
// part first, which every reader of the result (Collisions,
// EstimateCandidates, a walk over the ids) takes as one bucket.
func (t *Tables[P]) Lookup(q P) []Bucket {
	return t.LookupKeys(t.BlockKeys([]P{q}, nil, &KeyScratch{}), 0, 1, &Scratch{})
}

// BlockKeys hashes a block of queries into every table, one table at a
// time through its hasher's block path (keysOf): keys[j·len(block)+i]
// becomes table j's key of block[i]. s is the block path's scratch. It
// returns keys, grown as needed, for reuse.
func (t *Tables[P]) BlockKeys(block []P, keys []uint64, s *KeyScratch) []uint64 {
	b := len(block)
	keys = slices.Grow(keys[:0], len(t.tables)*b)[:len(t.tables)*b]
	hashEvals.Add(uint64(len(t.tables) * b))
	s.begin(block)
	for j := range t.tables {
		keysOf(t.tables[j].hasher, block, keys[j*b:(j+1)*b], s)
	}
	return keys
}

// LookupKeys looks up query i of a block of b queries whose keys
// BlockKeys computed (its key in table j is keys[j·b+i]), probing every
// table at once so the cache misses overlap. The result is s.Buckets; it
// must not be retained once s is reused.
func (t *Tables[P]) LookupKeys(keys []uint64, i, b int, s *Scratch) []Bucket {
	s.keys, s.ends = s.keys[:0], s.ends[:0]
	for j := range t.tables {
		s.keys = append(s.keys, keys[j*b+i])
		s.ends = append(s.ends, len(s.keys))
	}
	return t.probe(s)
}

// probe collects the buckets of the keys in s, table by table, in two
// passes. The first reads every key's directory run; the second scans
// the runs' heads and reads the overlay. A lookup costs two dependent
// cache misses per key, and splitting them so lets the misses of
// different keys overlap instead of chaining.
func (t *Tables[P]) probe(s *Scratch) []Bucket {
	s.runs = slices.Grow(s.runs[:0], len(s.keys))[:len(s.keys)]
	start := 0
	for i, end := range s.ends {
		slab := &t.tables[i].slab
		for k, key := range s.keys[start:end] {
			s.runs[start+k] = slab.run(key)
		}
		start = end
	}
	bs := s.Buckets[:0]
	start = 0
	for i, end := range s.ends {
		tb := &t.tables[i]
		for k, key := range s.keys[start:end] {
			if at := tb.slab.scan(key, s.runs[start+k]); at >= 0 {
				bs = append(bs, tb.slab.bucket(at))
			}
			bs = tb.appendOverlay(bs, key)
		}
		start = end
	}
	s.Buckets = bs
	return bs
}

// Collisions returns Σ|bucket| over bs — the paper's #collisions term,
// available exactly from the stored bucket sizes (step 1 of Algorithm 2).
func Collisions(bs []Bucket) int {
	n := 0
	for i := range bs {
		n += bs[i].Len()
	}
	return n
}

// Estimate merges the sketches of bs, buckets of t, into scratch
// (which it resets first) and returns the estimated number of distinct
// ids — the candSize term of Equation (1), step 2 of Algorithm 2.
// Buckets below the HLL threshold are folded in id by id through their
// entries, implementing the paper's on-demand trick. scratch must have
// t's register count.
func (t *Tables[P]) Estimate(bs []Bucket, scratch *hll.Sketch) float64 {
	scratch.Reset()
	for i := range bs {
		mergeBucket(scratch, &bs[i], &t.ents)
	}
	return scratch.Estimate()
}

// EstimateCandidates is Estimate over buckets of the Table view; pass a
// nil scratch to allocate one.
func (t *Tables[P]) EstimateCandidates(bs []*Bucket, scratch *hll.Sketch) float64 {
	if scratch == nil {
		scratch = hll.New(t.params.HLLRegisters)
	}
	scratch.Reset()
	for _, b := range bs {
		mergeBucket(scratch, b, &t.ents)
	}
	return scratch.Estimate()
}

// mergeBucket folds b into s: its sketch when it carries one, otherwise
// each of its ids.
func mergeBucket(s *hll.Sketch, b *Bucket, ents *idEntries) {
	switch {
	case b.Sketch != nil:
		s.MergeRegisters(b.Sketch)
	case b.narrow != nil:
		foldIDs(s, ents, b.narrow)
	default:
		foldIDs(s, ents, b.IDs)
	}
}

// foldIDs adds every id to s, as AddID would, through its entry.
func foldIDs[S ID](s *hll.Sketch, ents *idEntries, ids []S) {
	if ents.m <= 256 {
		hll.AddEntries(s, ents.narrow, ids)
	} else {
		hll.AddEntries(s, ents.wide, ids)
	}
}

// Stats summarizes the built structure.
type Stats struct {
	Tables          int
	Points          int
	Buckets         int     // total buckets across tables
	SketchedBuckets int     // buckets carrying a pre-built HLL
	SketchBytes     int     // total HLL register memory
	MaxBucket       int     // largest bucket size
	AvgBucket       float64 // mean bucket size
	// IDBytes is the bytes of the frozen slabs' id arrays: 2 per id in a
	// slab over at most 65 536 points, 4 above. Ids in an Append overlay
	// are not counted.
	IDBytes int
	// HeadBytes is the bytes of the frozen slabs' bucket heads and
	// lookup directories.
	HeadBytes int
}

// Stats scans the structure and reports size statistics; it is used by the
// space-overhead experiments.
func (t *Tables[P]) Stats() Stats {
	s := Stats{Tables: len(t.tables), Points: t.n}
	total := 0
	for i := range t.tables {
		slab := &t.tables[i].slab
		s.IDBytes += 2*len(slab.narrow) + 4*len(slab.wide)
		s.HeadBytes += int(unsafe.Sizeof(head{}))*len(slab.heads) + 4*len(slab.dir)
		for _, b := range t.tables[i].all(t.params, &t.ents) {
			s.Buckets++
			total += b.Len()
			s.MaxBucket = max(s.MaxBucket, b.Len())
			if b.Sketch != nil {
				s.SketchedBuckets++
				s.SketchBytes += len(b.Sketch)
			}
		}
	}
	if s.Buckets > 0 {
		s.AvgBucket = float64(total) / float64(s.Buckets)
	}
	return s
}

// Memory is the bytes a Tables holds, by part. It is read from array
// lengths and running counts, never from the buckets, so it costs O(L).
type Memory struct {
	// Heads is the frozen slabs' bucket heads and lookup directories.
	Heads int64
	// IDs is the frozen slabs' id arrays: 2 bytes an id in a narrow
	// slab, 4 in a wide one.
	IDs int64
	// Sketches is the frozen slabs' register slabs.
	Sketches int64
	// Entries is the per-id HLL entries the sketch folds read.
	Entries int64
	// Hashers is the drawn hash functions: what the hashers that report
	// their size (a Bytes method) hold.
	Hashers int64
	// Overlay is the append overlay: the ids appended since the freeze,
	// plus an estimate per overlay bucket for its map slot.
	Overlay int64
}

// Add adds o's parts to m's.
func (m *Memory) Add(o Memory) {
	m.Heads += o.Heads
	m.IDs += o.IDs
	m.Sketches += o.Sketches
	m.Entries += o.Entries
	m.Hashers += o.Hashers
	m.Overlay += o.Overlay
}

// overBucketBytes is what one overlay bucket costs besides its ids: as
// an estimate, its slot in the overlay map (the key, the id slice's
// header and a control byte) at a typical 2/3 load.
const overBucketBytes = (8 + int64(unsafe.Sizeof([]int32(nil))) + 1) * 3 / 2

// heapBytes is the heap an n-byte array occupies: above 32 KiB the
// runtime allocates whole 8 KiB pages, which on a table of a few
// thousand buckets is several per cent.
func heapBytes(n int64) int64 {
	if n <= 32<<10 {
		return n
	}
	return (n + 8<<10 - 1) &^ (8<<10 - 1)
}

// Memory returns the bytes the tables hold, by part.
func (t *Tables[P]) Memory() Memory {
	m := Memory{Entries: heapBytes(2*int64(cap(t.ents.narrow)) + 4*int64(cap(t.ents.wide)))}
	for i := range t.tables {
		tb := &t.tables[i]
		s := &tb.slab
		m.Heads += heapBytes(int64(unsafe.Sizeof(head{}))*int64(cap(s.heads))) + heapBytes(4*int64(cap(s.dir)))
		m.IDs += heapBytes(2*int64(cap(s.narrow)) + 4*int64(cap(s.wide)))
		m.Sketches += heapBytes(int64(cap(s.regs)))
		if h, ok := tb.hasher.(interface{ Bytes() int }); ok {
			m.Hashers += int64(h.Bytes())
		}
		m.Overlay += tb.overSize
	}
	return m
}
