package lsh

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
			s.MergeRegisters(b.Sketch)
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
		body = binary.LittleEndian.AppendUint32(body, uint32(b.Len()))
		for _, id := range b.AppendIDs(nil) {
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
		out = b.AppendIDs(out)
	}
	return out
}

func sameBuckets(a, b []Bucket) bool {
	return slices.EqualFunc(a, b, func(x, y Bucket) bool {
		return slices.Equal(x.AppendIDs(nil), y.AppendIDs(nil)) && (x.Sketch == nil) == (y.Sketch == nil) && slices.Equal(x.Sketch, y.Sketch)
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
		// These tables stay below 65 536 points: narrow unless forced.
		if slab := &tb.tables[j].slab; (slab.narrow == nil) != forceWide || (slab.wide == nil) == forceWide {
			t.Fatalf("%s: table %d slab has %d narrow and %d wide ids with forceWide %v", state, j, len(slab.narrow), len(slab.wide), forceWide)
		}
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
		got := tb.Lookup(q)
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
		est := ref.estimate(q, probes)
		if e := tb.Estimate(got, scratch); e != est {
			t.Fatalf("%s: query %d estimate %v, reference %v", state, qi, e, est)
		}
		if e := tb.EstimateCandidates(views(got), nil); e != est {
			t.Fatalf("%s: query %d estimate over views %v, reference %v", state, qi, e, est)
		}
	}
}

// restoreShuffled rebuilds tb the way a snapshot decoder does, handing
// each table's buckets to NewSlab in a random order.
func restoreShuffled[P any](t *testing.T, tb *Tables[P], r *rng.Rand) *Tables[P] {
	t.Helper()
	hashers := make([]Hasher[P], tb.L())
	slabs := make([]*Slab, tb.L())
	for j := range slabs {
		hashers[j] = tb.Hasher(j)
		type kb struct {
			key uint64
			ids []int32
			b   Bucket
		}
		var all []kb
		for k, b := range tb.SortedBuckets(j) {
			all = append(all, kb{k, b.AppendIDs(nil), b})
		}
		for i := len(all) - 1; i > 0; i-- {
			k := r.Intn(i + 1)
			all[i], all[k] = all[k], all[i]
		}
		describe := func(i int) (uint64, int, bool) { return all[i].key, len(all[i].ids), all[i].b.Sketch != nil }
		fill := func(i int, narrow []uint16, wide []int32, regs []uint8) error {
			for k, id := range all[i].ids {
				if narrow != nil {
					narrow[k] = uint16(id)
				} else {
					wide[k] = id
				}
			}
			copy(regs, all[i].b.Sketch)
			return nil
		}
		var err error
		if slabs[j], err = NewSlab(tb.Params().HLLRegisters, tb.N(), len(all), describe, fill); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := RestoreTables(tb.Params(), hashers, slabs, tb.N())
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNewSlabRejectsRepeatedKey: a key met twice among many fails the
// layout before any bucket is filled, naming the key.
func TestNewSlabRejectsRepeatedKey(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 7919
	}
	keys[613] = keys[42]
	describe := func(i int) (uint64, int, bool) { return keys[i], 1, false }
	fill := func(i int, narrow []uint16, wide []int32, regs []uint8) error {
		t.Fatalf("bucket %d filled", i)
		return nil
	}
	_, err := NewSlab(16, 1, len(keys), describe, fill)
	if want := fmt.Sprintf("lsh: duplicate bucket key %#x", keys[42]); err == nil || err.Error() != want {
		t.Fatalf("NewSlab error %v, want %q", err, want)
	}
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

func TestSlabsMatchMapTables(t *testing.T) { testSlabsMatchMapTables(t) }

// TestSlabsMatchMapTablesWide is TestSlabsMatchMapTables with every slab
// stored wide, as a table over more than 65 536 points stores it.
func TestSlabsMatchMapTablesWide(t *testing.T) {
	forceWide = true
	defer func() { forceWide = false }()
	testSlabsMatchMapTables(t)
}

func testSlabsMatchMapTables(t *testing.T) {
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
	slab := &tb.tables[0].slab
	narrow, wide, regs := slices.Clone(slab.narrow), slices.Clone(slab.wide), slices.Clone(slab.regs)
	if err := tb.Append(pts[:3]); err != nil {
		t.Fatal(err)
	}
	if len(tb.tables[0].over) == 0 {
		t.Fatal("a small Append re-froze the table")
	}
	if !slices.Equal(slab.narrow, narrow) || !slices.Equal(slab.wide, wide) || !slices.Equal(slab.regs, regs) {
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
// the L keys alone through Key, lookup is a block of one through
// BlockKeys and LookupKeys — the keys, then the probes — as a served
// /query takes it on each shard, so lookup minus hash is the probing
// cost per query. Half the queries
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
		var hs KeyScratch
		var keys []uint64
		for i := 0; b.Loop(); i++ {
			keys = tb.BlockKeys(queries[i%len(queries):][:1], keys, &hs)
			tb.LookupKeys(keys, 0, 1, &s)
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
			for j := 0; j < tb.L(); j++ {
				tb.Lookup(pts[(w*7+j)%len(pts)])
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

// BenchmarkKernelBuild builds one table set shaped like a shard of a
// load-benchmark workload, scaled to a short benchmark; ns/point is the
// whole Build (hashing every point into every table, then grouping,
// sketching and freezing each table) per indexed point.
//
//   - dense128: 4 096 points at d = 128 in 64 tight clusters, L = 50
//     tables of k = 7 Gaussian projections, m = 64 (dense128-batch).
//   - hamming64: 4 096 64-bit fingerprints in 10 clusters, each point
//     its centre with every bit flipped with a per-cluster probability
//     in [0.06, 0.16] (within-cluster distances around 12–17, as
//     MNIST's), L = 50 tables of k = 11 sampled bits, m = 128
//     (mnist-collide).
func BenchmarkKernelBuild(b *testing.B) {
	const n = 4096
	run := func(b *testing.B, build func() error) {
		for b.Loop() {
			if err := build(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
	}
	b.Run("dense128", func(b *testing.B) {
		const dim, clusters = 128, 64
		r := rng.New(7)
		centres := make([]vector.Dense, clusters)
		for c := range centres {
			centres[c] = make(vector.Dense, dim)
			for d := range centres[c] {
				centres[c][d] = float32(r.Float64())
			}
		}
		pts := make([]vector.Dense, n)
		for i := range pts {
			c := centres[i%clusters]
			pts[i] = make(vector.Dense, dim)
			for d := range pts[i] {
				pts[i][d] = c[d] + float32(0.03*r.Normal())
			}
		}
		fam := NewPStableL2(dim, 0.6)
		run(b, func() error {
			_, err := Build(pts, fam, Params{K: 7, L: 50, HLLRegisters: 64, Seed: 1})
			return err
		})
	})
	b.Run("hamming64", func(b *testing.B) {
		const dim, clusters = 64, 10
		r := rng.New(7)
		centres, flip := make([]uint64, clusters), make([]float64, clusters)
		for c := range centres {
			centres[c], flip[c] = r.Uint64(), 0.06+0.1*r.Float64()
		}
		pts := make([]vector.Binary, n)
		for i := range pts {
			c := i % clusters
			pts[i] = vector.Binary{Dim: dim, Words: []uint64{centres[c]}}
			for bit := range dim {
				if r.Float64() < flip[c] {
					pts[i].FlipBit(bit)
				}
			}
		}
		fam := NewBitSampling(dim)
		run(b, func() error {
			_, err := Build(pts, fam, Params{K: 11, L: 50, HLLRegisters: 128, Seed: 1})
			return err
		})
	})
}
