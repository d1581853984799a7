package lsh

import (
	"bytes"
	"encoding/binary"
	"iter"
	"slices"
	"sync"
	"testing"

	"repro/internal/hashutil"
	"repro/internal/hll"
	"repro/internal/rng"
	"repro/internal/vector"
)

// The slab tables against the map-based bucket tables they replaced,
// kept here as the reference: a map per table from key to an id slice
// plus an optional sketch object, grown by Append and rewritten by
// Compact exactly as before.

type refBucket struct {
	ids    []int32
	sketch *hll.Sketch
}

type refTables[P any] struct {
	p       Params
	hashers []Hasher[P]
	maps    []map[uint64]*refBucket
	n       int
}

// newRef returns an empty reference over tb's parameters and hashers.
func newRef[P any](tb *Tables[P]) *refTables[P] {
	r := &refTables[P]{p: tb.Params()}
	for j := 0; j < tb.L(); j++ {
		r.hashers = append(r.hashers, tb.Hasher(j))
		r.maps = append(r.maps, make(map[uint64]*refBucket))
	}
	return r
}

// append is the map Append; from empty it is also the map Build (a
// sketch's registers do not depend on the order its ids came in).
func (r *refTables[P]) append(points []P) {
	for j, h := range r.hashers {
		for i, pt := range points {
			id := int32(r.n + i)
			key := h.Key(pt)
			b := r.maps[j][key]
			if b == nil {
				b = &refBucket{}
				r.maps[j][key] = b
			}
			b.ids = append(b.ids, id)
			switch {
			case b.sketch != nil:
				b.sketch.AddID(uint64(id))
			case len(b.ids) >= r.p.HLLThreshold:
				b.sketch = hll.New(r.p.HLLRegisters)
				for _, x := range b.ids {
					b.sketch.AddID(uint64(x))
				}
			}
		}
	}
	r.n += len(points)
}

// compact is the map Compact.
func (r *refTables[P]) compact(remap []int32, live int) *refTables[P] {
	c := &refTables[P]{p: r.p, hashers: r.hashers, n: live}
	for _, src := range r.maps {
		dst := make(map[uint64]*refBucket)
		for key, b := range src {
			var kept []int32
			for _, id := range b.ids {
				if nid := remap[id]; nid >= 0 {
					kept = append(kept, nid)
				}
			}
			if len(kept) == 0 {
				continue
			}
			nb := &refBucket{ids: kept}
			if len(kept) >= r.p.HLLThreshold {
				nb.sketch = hll.New(r.p.HLLRegisters)
				for _, id := range kept {
					nb.sketch.AddID(uint64(id))
				}
			}
			dst[key] = nb
		}
		c.maps = append(c.maps, dst)
	}
	return c
}

func (b *refBucket) view() Bucket {
	v := Bucket{IDs: b.ids}
	if b.sketch != nil {
		v.Sketch = b.sketch.Registers()
	}
	return v
}

// sorted yields table j's buckets in ascending key order.
func (r *refTables[P]) sorted(j int) iter.Seq2[uint64, Bucket] {
	return func(yield func(uint64, Bucket) bool) {
		keys := make([]uint64, 0, len(r.maps[j]))
		for k := range r.maps[j] {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if !yield(k, r.maps[j][k].view()) {
				return
			}
		}
	}
}

// lookup is the map lookup of q: the home bucket, or with probes > 0
// the probing sequence, table by table.
func (r *refTables[P]) lookup(q P, probes int) []Bucket {
	var out []Bucket
	for j, h := range r.hashers {
		keys := []uint64{h.Key(q)}
		if probes > 0 {
			keys = h.(Prober[P]).ProbeKeys(q, probes, nil)
		}
		for _, k := range keys {
			if b := r.maps[j][k]; b != nil {
				out = append(out, b.view())
			}
		}
	}
	return out
}

// estimate is the map EstimateCandidates: sketch objects merged, small
// buckets folded in id by id.
func (r *refTables[P]) estimate(q P, probes int) float64 {
	s := hll.New(r.p.HLLRegisters)
	for _, b := range r.lookup(q, probes) {
		if b.Sketch != nil {
			o, err := hll.FromRegisters(b.Sketch)
			if err != nil {
				panic(err)
			}
			s.Merge(o)
			continue
		}
		for _, id := range b.IDs {
			s.AddID(uint64(id))
		}
	}
	return s.Estimate()
}

// encodeTable is a table's bucket list in the snapshot encoding: count,
// then key, id count, ids, sketch flag and registers per bucket.
func encodeTable(buckets iter.Seq2[uint64, Bucket]) []byte {
	var body []byte
	count := uint64(0)
	for k, b := range buckets {
		body = binary.LittleEndian.AppendUint64(body, k)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(b.IDs)))
		for _, id := range b.IDs {
			body = binary.LittleEndian.AppendUint32(body, uint32(id))
		}
		if b.Sketch != nil {
			body = append(append(body, 1), b.Sketch...)
		} else {
			body = append(body, 0)
		}
		count++
	}
	return append(binary.LittleEndian.AppendUint64(nil, count), body...)
}

func flatIDs(bs []Bucket) []int32 {
	var out []int32
	for _, b := range bs {
		out = append(out, b.IDs...)
	}
	return out
}

func sameBuckets(a, b []Bucket) bool {
	return slices.EqualFunc(a, b, func(x, y Bucket) bool {
		return slices.Equal(x.IDs, y.IDs) && (x.Sketch == nil) == (y.Sketch == nil) && slices.Equal(x.Sketch, y.Sketch)
	})
}

// checkSame compares tb with the reference in every way a reader sees
// the tables.
func checkSame[P any](t *testing.T, state string, tb *Tables[P], ref *refTables[P], queries []P, probes int) {
	t.Helper()
	if tb.N() != ref.n {
		t.Fatalf("%s: N = %d, reference %d", state, tb.N(), ref.n)
	}
	buckets, sketched := 0, 0
	for j := 0; j < tb.L(); j++ {
		if got, want := encodeTable(tb.SortedBuckets(j)), encodeTable(ref.sorted(j)); !bytes.Equal(got, want) {
			t.Fatalf("%s: table %d encodes to %d bytes that differ from the reference's %d", state, j, len(got), len(want))
		}
		view := tb.Table(j).Buckets
		if len(view) != len(ref.maps[j]) {
			t.Fatalf("%s: table %d view has %d buckets, reference %d", state, j, len(view), len(ref.maps[j]))
		}
		for k, b := range ref.maps[j] {
			if v := view[k]; v == nil || !sameBuckets([]Bucket{*v}, []Bucket{b.view()}) {
				t.Fatalf("%s: table %d view of bucket %#x differs from the reference", state, j, k)
			}
			buckets++
			if b.sketch != nil {
				sketched++
			}
		}
	}
	if st := tb.Stats(); st.Buckets != buckets || st.SketchedBuckets != sketched {
		t.Fatalf("%s: Stats count %d buckets, %d sketched; reference %d, %d", state, st.Buckets, st.SketchedBuckets, buckets, sketched)
	}
	var s Scratch
	scratch := hll.New(tb.Params().HLLRegisters)
	for qi, q := range queries {
		got := tb.LookupInto(q, &s)
		if probes > 0 {
			got = tb.ProbeInto(q, probes, &s)
		}
		// A bucket with appended ids comes as two views, frozen part
		// first: the id stream is the reference's.
		want := ref.lookup(q, probes)
		if !slices.Equal(flatIDs(got), flatIDs(want)) {
			t.Fatalf("%s: query %d finds %d buckets whose ids differ from the reference's %d", state, qi, len(got), len(want))
		}
		if Collisions(got) != Collisions(want) {
			t.Fatalf("%s: query %d collisions %d, reference %d", state, qi, Collisions(got), Collisions(want))
		}
		if got, want := EstimateCandidates(got, scratch), ref.estimate(q, probes); got != want {
			t.Fatalf("%s: query %d estimate %v, reference %v", state, qi, got, want)
		}
	}
}

// restoreShuffled rebuilds tb the way a snapshot decoder does, feeding
// each table's buckets to a SlabBuilder in a random order.
func restoreShuffled[P any](t *testing.T, tb *Tables[P], r *rng.Rand) *Tables[P] {
	t.Helper()
	hashers := make([]Hasher[P], tb.L())
	slabs := make([]*Slab, tb.L())
	for j := range slabs {
		hashers[j] = tb.Hasher(j)
		type kb struct {
			key uint64
			b   Bucket
		}
		var all []kb
		for k, b := range tb.SortedBuckets(j) {
			all = append(all, kb{k, b})
		}
		for i := len(all) - 1; i > 0; i-- {
			k := r.Intn(i + 1)
			all[i], all[k] = all[k], all[i]
		}
		sb := NewSlabBuilder(tb.Params().HLLRegisters, len(all), 0)
		for _, x := range all {
			copy(sb.Add(x.key, len(x.b.IDs)), x.b.IDs)
			if x.b.Sketch != nil {
				if err := sb.Sketch(x.b.Sketch); err != nil {
					t.Fatal(err)
				}
			}
		}
		var err error
		if slabs[j], err = sb.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := RestoreTables(tb.Params(), hashers, slabs, tb.N())
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// randomRemap drops each point with probability 1/4.
func randomRemap(n int, r *rng.Rand) ([]int32, int) {
	remap := make([]int32, n)
	live := 0
	for i := range remap {
		if r.Float64() < 0.25 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		live++
	}
	return remap, live
}

// exerciseTables runs tb through Build (or an empty restore) → Appends
// of mixed sizes (some stay in the overlay, some re-freeze it) →
// Compact → restore → Append → Compact with a live overlay, comparing
// with the reference after every step.
func exerciseTables[P any](t *testing.T, tb *Tables[P], ref *refTables[P], gen func(n int, seed uint64) []P, probes int) {
	r := rng.New(99)
	queries := append(gen(20, 1000), gen(200, 1)[:20]...)
	checkSame(t, "built", tb, ref, queries, probes)
	step := 0
	appendBatch := func(tb *Tables[P], ref *refTables[P], n int) {
		step++
		batch := gen(n, uint64(2000+step))
		if err := tb.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.append(batch)
		checkSame(t, "append", tb, ref, append(queries, batch[:min(5, n)]...), probes)
	}
	for _, n := range []int{1, 3, 40, 2, 150, 7} {
		appendBatch(tb, ref, n)
	}
	remap, live := randomRemap(tb.N(), r)
	ct, err := tb.Compact(remap, live)
	if err != nil {
		t.Fatal(err)
	}
	rc := ref.compact(remap, live)
	checkSame(t, "compacted", ct, rc, queries, probes)
	checkSame(t, "compacted receiver", tb, ref, queries, probes)

	rt := restoreShuffled(t, ct, r)
	checkSame(t, "restored", rt, rc, queries, probes)
	appendBatch(rt, rc, 5)
	appendBatch(rt, rc, 1)
	if len(rt.tables[0].over) == 0 {
		t.Fatal("test setup: no overlay left to compact")
	}
	remap, live = randomRemap(rt.N(), r)
	ct, err = rt.Compact(remap, live)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "compacted overlay", ct, rc.compact(remap, live), queries, probes)
}

// maskHasher is a covering-style table hasher: K() == 1, keyed on the
// masked words.
type maskHasher struct{ mask []uint64 }

func (h maskHasher) Key(p vector.Binary) uint64 {
	k := uint64(len(p.Words))
	for i, w := range p.Words {
		k = hashutil.Combine(k, w&h.mask[i])
	}
	return k
}

func (h maskHasher) K() int { return 1 }

func TestSlabsMatchMapTables(t *testing.T) {
	const dim = 64
	binaries := func(n int, seed uint64) []vector.Binary { return randomBinaries(n, dim, seed) }
	dense := func(n int, seed uint64) []vector.Dense {
		r := rng.New(seed)
		pts := make([]vector.Dense, n)
		for i := range pts {
			pts[i] = make(vector.Dense, 8)
			for d := range pts[i] {
				pts[i][d] = float32(r.Normal())
			}
		}
		return pts
	}
	p := Params{K: 2, L: 5, HLLRegisters: 16, HLLThreshold: 4, Seed: 3}

	t.Run("BitSampling", func(t *testing.T) {
		pts := binaries(300, 1)
		tb, err := Build(pts, NewBitSampling(dim), Params{K: 6, L: 5, HLLRegisters: 16, HLLThreshold: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(tb)
		ref.append(pts)
		exerciseTables(t, tb, ref, binaries, 0)
	})
	for _, probes := range []int{0, 6} {
		name := map[int]string{0: "PStable", 6: "MultiProbe"}[probes]
		t.Run(name, func(t *testing.T) {
			pts := dense(200, 1)
			tb, err := Build(pts, NewPStableL2(8, 1.5), p)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRef(tb)
			ref.append(pts)
			exerciseTables(t, tb, ref, dense, probes)
		})
	}
	t.Run("CoveringMask", func(t *testing.T) {
		r := rng.New(5)
		hashers := make([]Hasher[vector.Binary], 7)
		for j := range hashers {
			hashers[j] = maskHasher{[]uint64{r.Uint64() & r.Uint64()}}
		}
		tb, err := RestoreTables(Params{K: 1, L: 7, HLLRegisters: 16, HLLThreshold: 4}, hashers, make([]*Slab, 7), 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(tb)
		pts := binaries(250, 1)
		if err := tb.Append(pts); err != nil {
			t.Fatal(err)
		}
		ref.append(pts)
		if len(tb.tables[0].over) != 0 {
			t.Fatal("an Append into empty tables left an overlay")
		}
		exerciseTables(t, tb, ref, binaries, 0)
	})
}

// TestAppendKeepsSlabsFrozen: Append copies a grown bucket into the
// overlay and never writes the slab, so a compaction reading the
// receiver sees the same bytes before and after; the view taken before
// an Append is replaced, not updated.
func TestAppendKeepsSlabsFrozen(t *testing.T) {
	pts := randomBinaries(400, 64, 7)
	tb := mustBuild(t, pts, Params{K: 8, L: 3, HLLRegisters: 16, HLLThreshold: 4, Seed: 1})
	before := tb.Table(0)
	frozen := slices.Clone(tb.tables[0].slab.ids)
	regs := slices.Clone(tb.tables[0].slab.regs)
	if err := tb.Append(pts[:3]); err != nil {
		t.Fatal(err)
	}
	if len(tb.tables[0].over) == 0 {
		t.Fatal("a small Append re-froze the table")
	}
	if !slices.Equal(tb.tables[0].slab.ids, frozen) || !slices.Equal(tb.tables[0].slab.regs, regs) {
		t.Fatal("Append wrote into the frozen slab")
	}
	key := tb.Hasher(0).Key(pts[0])
	if after := tb.Table(0); after == before || len(after.Buckets[key].IDs) <= len(before.Buckets[key].IDs) {
		t.Fatal("the view taken before the Append was not replaced")
	}
}

// BenchmarkKernelTableLookup collects one query's buckets from L = 50
// tables of k = 7 projections over 25 000 Gaussian points at d = 32
// (about one id per bucket; dense128-batch holds 1.34): hash is
// the L keys alone, lookup is LookupInto — the keys, then the probes —
// so lookup minus hash is the probing cost per query. Half the queries
// are indexed points (every table hits), half fresh draws (most miss).
func BenchmarkKernelTableLookup(b *testing.B) {
	const n, dim = 25000, 32
	gauss := func(n int, seed uint64) []vector.Dense {
		r := rng.New(seed)
		pts := make([]vector.Dense, n)
		for i := range pts {
			pts[i] = make(vector.Dense, dim)
			for d := range pts[i] {
				pts[i][d] = float32(r.Normal())
			}
		}
		return pts
	}
	pts := gauss(n, 1)
	tb, err := Build(pts, NewPStableL2(dim, 2), Params{K: 7, L: 50, HLLRegisters: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := append(gauss(64, 2), pts[:64]...)
	idsPerBucket := float64(n*tb.L()) / float64(tb.Stats().Buckets)
	b.Run("hash", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			q := queries[i%len(queries)]
			for j := 0; j < tb.L(); j++ {
				tb.Hasher(j).Key(q)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
	})
	b.Run("lookup", func(b *testing.B) {
		var s Scratch
		for i := 0; b.Loop(); i++ {
			tb.LookupInto(queries[i%len(queries)], &s)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
		b.ReportMetric(idsPerBucket, "ids/bucket")
	})
}

// TestConcurrentViewAndLookups: readers may build the Table view while
// others look up; every reader gets the one view that won.
func TestConcurrentViewAndLookups(t *testing.T) {
	pts := randomBinaries(400, 64, 21)
	tb := mustBuild(t, pts, Params{K: 4, L: 6, HLLRegisters: 16, Seed: 21})
	if err := tb.Append(pts[:2]); err != nil { // leave an overlay to read
		t.Fatal(err)
	}
	views := make([][]*Table[vector.Binary], 4)
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Scratch
			for j := 0; j < tb.L(); j++ {
				tb.LookupInto(pts[(w*7+j)%len(pts)], &s)
				views[w] = append(views[w], tb.Table(j))
			}
		}()
	}
	wg.Wait()
	for w := range views {
		for j, v := range views[w] {
			if v != views[0][j] {
				t.Fatalf("reader %d got a different view of table %d", w, j)
			}
		}
	}
}
