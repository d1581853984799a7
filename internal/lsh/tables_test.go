package lsh

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/hll"
	"repro/internal/rng"
	"repro/internal/vector"
)

// randomBinaries returns n random dim-bit vectors.
func randomBinaries(n, dim int, seed uint64) []vector.Binary {
	r := rng.New(seed)
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			b.SetBit(j, r.Float64() < 0.5)
		}
		pts[i] = b
	}
	return pts
}

func mustBuild(t *testing.T, pts []vector.Binary, p Params) *Tables[vector.Binary] {
	t.Helper()
	tb, err := Build(pts, NewBitSampling(pts[0].Dim), p)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBuildValidation(t *testing.T) {
	pts := randomBinaries(10, 64, 1)
	fam := NewBitSampling(64)
	cases := []Params{
		{K: 0, L: 5, HLLRegisters: 32},
		{K: 4, L: 0, HLLRegisters: 32},
		{K: 4, L: 5, HLLRegisters: 0},
		{K: 4, L: 5, HLLRegisters: 33},
		{K: 4, L: 5, HLLRegisters: 32, HLLThreshold: -1},
	}
	for i, p := range cases {
		if _, err := Build(pts, fam, p); err == nil {
			t.Errorf("case %d: Build accepted invalid params %+v", i, p)
		}
	}
	if _, err := Build(nil, fam, Params{K: 4, L: 5, HLLRegisters: 32}); err == nil {
		t.Error("Build accepted empty point set")
	}
}

func TestBuildBucketSizesSumToNL(t *testing.T) {
	const n, L = 500, 7
	pts := randomBinaries(n, 64, 2)
	tb := mustBuild(t, pts, Params{K: 4, L: L, HLLRegisters: 32, Seed: 1})
	total := 0
	for j := 0; j < tb.L(); j++ {
		for _, b := range tb.Table(j).Buckets {
			total += len(b.IDs)
		}
	}
	if total != n*L {
		t.Fatalf("total bucket entries = %d, want %d", total, n*L)
	}
}

func TestLookupFindsOwnBucket(t *testing.T) {
	// Querying with an indexed point must find it in every table.
	pts := randomBinaries(200, 64, 3)
	tb := mustBuild(t, pts, Params{K: 6, L: 10, HLLRegisters: 32, Seed: 2})
	for qi := 0; qi < 20; qi++ {
		bs := tb.Lookup(pts[qi])
		if len(bs) != 10 {
			t.Fatalf("point %d found in %d/10 of its own buckets", qi, len(bs))
		}
		for _, b := range bs {
			found := false
			for _, id := range b.IDs {
				if int(id) == qi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("point %d missing from its own bucket", qi)
			}
		}
	}
}

func TestCollisionsMatchesBruteForce(t *testing.T) {
	pts := randomBinaries(300, 64, 4)
	tb := mustBuild(t, pts, Params{K: 3, L: 8, HLLRegisters: 32, Seed: 3})
	q := pts[0]
	bs := tb.Lookup(q)
	want := 0
	for j := 0; j < tb.L(); j++ {
		tab := tb.Table(j)
		key := tab.Hasher.Key(q)
		for i, p := range pts {
			if tab.Hasher.Key(p) == key {
				want++
			}
			_ = i
		}
	}
	if got := Collisions(bs); got != want {
		t.Fatalf("Collisions = %d, brute force = %d", got, want)
	}
}

func TestEstimateCandidatesAccuracy(t *testing.T) {
	// The HLL estimate of the distinct candidate count must be within a
	// few standard errors of the true distinct count.
	pts := randomBinaries(5000, 64, 5)
	tb := mustBuild(t, pts, Params{K: 2, L: 20, HLLRegisters: 128, Seed: 4})
	scratch := hll.New(128)
	for qi := 0; qi < 10; qi++ {
		q := pts[qi*13]
		bs := tb.Lookup(q)
		est := tb.EstimateCandidates(views(bs), scratch)
		truth := trueDistinct(bs)
		if truth == 0 {
			t.Fatal("query found no candidates; test setup broken")
		}
		rel := math.Abs(est-float64(truth)) / float64(truth)
		if rel > 0.30 {
			t.Errorf("query %d: estimate %v vs truth %d (rel err %v)", qi, est, truth, rel)
		}
	}
}

// views points at each bucket of bs, the shape Tables.EstimateCandidates
// takes.
func views(bs []Bucket) []*Bucket {
	out := make([]*Bucket, len(bs))
	for i := range bs {
		out[i] = &bs[i]
	}
	return out
}

func trueDistinct(bs []Bucket) int {
	seen := make(map[int32]bool)
	for _, b := range bs {
		for _, id := range b.IDs {
			seen[id] = true
		}
	}
	return len(seen)
}

func TestEstimateCandidatesNilScratchAllocates(t *testing.T) {
	pts := randomBinaries(100, 64, 6)
	tb := mustBuild(t, pts, Params{K: 2, L: 4, HLLRegisters: 32, Seed: 5})
	bs := tb.Lookup(pts[0])
	if est := tb.EstimateCandidates(views(bs), nil); est <= 0 {
		t.Fatalf("estimate = %v, want > 0", est)
	}
}

func TestEstimateCandidatesEmptyLookup(t *testing.T) {
	pts := randomBinaries(50, 64, 7)
	tb := mustBuild(t, pts, Params{K: 2, L: 4, HLLRegisters: 32, Seed: 6})
	if est := tb.EstimateCandidates(nil, nil); est != 0 {
		t.Fatalf("estimate over no buckets = %v, want 0", est)
	}
}

func TestHLLThresholdControlsSketching(t *testing.T) {
	// With threshold 1 every bucket is sketched; with a huge threshold
	// none are. Estimates must agree either way (on-demand trick).
	pts := randomBinaries(1000, 64, 8)
	all := mustBuild(t, pts, Params{K: 2, L: 6, HLLRegisters: 64, HLLThreshold: 1, Seed: 7})
	none := mustBuild(t, pts, Params{K: 2, L: 6, HLLRegisters: 64, HLLThreshold: 1 << 30, Seed: 7})

	sAll, sNone := all.Stats(), none.Stats()
	if sAll.SketchedBuckets != sAll.Buckets {
		t.Fatalf("threshold 1: %d/%d buckets sketched", sAll.SketchedBuckets, sAll.Buckets)
	}
	if sNone.SketchedBuckets != 0 {
		t.Fatalf("huge threshold: %d buckets sketched", sNone.SketchedBuckets)
	}

	for qi := 0; qi < 10; qi++ {
		q := pts[qi*7]
		estAll := all.EstimateCandidates(views(all.Lookup(q)), nil)
		estNone := none.EstimateCandidates(views(none.Lookup(q)), nil)
		if math.Abs(estAll-estNone) > 1e-9 {
			t.Fatalf("on-demand estimate %v differs from pre-built %v", estNone, estAll)
		}
	}
}

func TestDefaultThresholdIsM(t *testing.T) {
	pts := randomBinaries(2000, 64, 9)
	tb := mustBuild(t, pts, Params{K: 1, L: 3, HLLRegisters: 64, Seed: 8})
	for j := 0; j < tb.L(); j++ {
		for _, b := range tb.Table(j).Buckets {
			if len(b.IDs) >= 64 && b.Sketch == nil {
				t.Fatal("large bucket missing sketch")
			}
			if len(b.IDs) < 64 && b.Sketch != nil {
				t.Fatal("small bucket carries sketch despite default threshold")
			}
		}
	}
}

func TestBuildDeterministicAcrossRuns(t *testing.T) {
	pts := randomBinaries(300, 64, 10)
	p := Params{K: 4, L: 6, HLLRegisters: 32, Seed: 11}
	a := mustBuild(t, pts, p)
	b := mustBuild(t, pts, p)
	q := pts[42]
	ba, bb := a.Lookup(q), b.Lookup(q)
	if len(ba) != len(bb) {
		t.Fatalf("lookup sizes differ: %d vs %d (parallel build nondeterminism?)", len(ba), len(bb))
	}
	for i := range ba {
		if len(ba[i].IDs) != len(bb[i].IDs) {
			t.Fatal("bucket contents differ across identical builds")
		}
		for j := range ba[i].IDs {
			if ba[i].IDs[j] != bb[i].IDs[j] {
				t.Fatal("bucket id order differs across identical builds")
			}
		}
	}
}

func TestConcurrentLookups(t *testing.T) {
	pts := randomBinaries(500, 64, 12)
	tb := mustBuild(t, pts, Params{K: 3, L: 8, HLLRegisters: 64, Seed: 13})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := hll.New(64)
			for i := 0; i < 100; i++ {
				q := pts[(w*100+i)%len(pts)]
				bs := tb.Lookup(q)
				_ = Collisions(bs)
				_ = tb.EstimateCandidates(views(bs), scratch)
			}
		}(w)
	}
	wg.Wait()
}

func TestStats(t *testing.T) {
	pts := randomBinaries(400, 64, 14)
	tb := mustBuild(t, pts, Params{K: 2, L: 5, HLLRegisters: 32, Seed: 15})
	s := tb.Stats()
	if s.Tables != 5 || s.Points != 400 {
		t.Fatalf("Stats basic fields wrong: %+v", s)
	}
	if s.Buckets == 0 || s.MaxBucket == 0 || s.AvgBucket <= 0 {
		t.Fatalf("Stats sizes wrong: %+v", s)
	}
	if s.SketchBytes != s.SketchedBuckets*32 {
		t.Fatalf("SketchBytes = %d, want %d", s.SketchBytes, s.SketchedBuckets*32)
	}
}

func TestNAndParams(t *testing.T) {
	pts := randomBinaries(64, 64, 16)
	tb := mustBuild(t, pts, Params{K: 2, L: 3, HLLRegisters: 32, Seed: 17})
	if tb.N() != 64 {
		t.Fatalf("N = %d", tb.N())
	}
	if got := tb.Params().HLLThreshold; got != 32 {
		t.Fatalf("default threshold = %d, want m", got)
	}
}

func TestCompactRewritesBuckets(t *testing.T) {
	pts := randomBinaries(300, 64, 9)
	p := Params{K: 4, L: 8, HLLRegisters: 32, HLLThreshold: 4, Seed: 9}
	tb := mustBuild(t, pts, p)

	// Drop every third point; survivors renumber by rank.
	remap := make([]int32, len(pts))
	live := 0
	for i := range remap {
		if i%3 == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		live++
	}
	ct, err := tb.Compact(remap, live)
	if err != nil {
		t.Fatal(err)
	}
	if ct.N() != live {
		t.Fatalf("compacted N = %d, want %d", ct.N(), live)
	}
	if tb.N() != len(pts) {
		t.Fatalf("source tables mutated: N = %d", tb.N())
	}

	// Survivors must sit in the same buckets under the same keys with
	// rewritten ids; the per-table id multisets must be exactly the
	// remapped survivors, and sketches must be rebuilt per threshold.
	for j := 0; j < tb.L(); j++ {
		src, dst := tb.Table(j), ct.Table(j)
		if src.Hasher != dst.Hasher {
			t.Fatalf("table %d: hasher was not kept", j)
		}
		total := 0
		for key, b := range src.Buckets {
			var want []int32
			for _, id := range b.IDs {
				if nid := remap[id]; nid >= 0 {
					want = append(want, nid)
				}
			}
			nb := dst.Buckets[key]
			if len(want) == 0 {
				if nb != nil {
					t.Fatalf("table %d bucket %x should have been dropped", j, key)
				}
				continue
			}
			if nb == nil {
				t.Fatalf("table %d bucket %x vanished", j, key)
			}
			if !slices.Equal(nb.IDs, want) {
				t.Fatalf("table %d bucket %x ids = %v, want %v", j, key, nb.IDs, want)
			}
			total += len(nb.IDs)
			if len(want) >= p.HLLThreshold {
				if nb.Sketch == nil {
					t.Fatalf("table %d bucket %x missing rebuilt sketch", j, key)
				}
				fresh := hll.New(p.HLLRegisters)
				for _, id := range want {
					fresh.AddID(uint64(id))
				}
				if !slices.Equal(nb.Sketch, fresh.Registers()) {
					t.Fatalf("table %d bucket %x sketch not rebuilt from live ids", j, key)
				}
			} else if nb.Sketch != nil {
				t.Fatalf("table %d bucket %x kept a sketch below threshold", j, key)
			}
		}
		if total != live {
			t.Fatalf("table %d holds %d ids after compaction, want %d", j, total, live)
		}
	}
}

func TestCompactValidation(t *testing.T) {
	pts := randomBinaries(20, 64, 10)
	tb := mustBuild(t, pts, Params{K: 3, L: 2, HLLRegisters: 32, Seed: 10})
	if _, err := tb.Compact(make([]int32, 5), 5); err == nil {
		t.Fatal("Compact accepted a short remap")
	}
	bad := make([]int32, 20)
	bad[0] = 25 // out of live range
	if _, err := tb.Compact(bad, 20); err == nil {
		t.Fatal("Compact accepted an out-of-range remap entry")
	}
	skewed := make([]int32, 20) // 20 zero entries: survivor count != live
	if _, err := tb.Compact(skewed, 5); err == nil {
		t.Fatal("Compact accepted a remap whose survivor count disagrees with live")
	}
	dup := make([]int32, 20) // two survivors sharing new id 0
	for i := range dup {
		dup[i] = -1
	}
	dup[3], dup[7] = 0, 0
	if _, err := tb.Compact(dup, 2); err == nil {
		t.Fatal("Compact accepted a remap with duplicate new ids")
	}
}

func TestLookupIntoReusesScratch(t *testing.T) {
	pts := randomBinaries(200, 64, 11)
	tb := mustBuild(t, pts, Params{K: 3, L: 10, HLLRegisters: 32, Seed: 11})
	var s Scratch
	buf := tb.LookupInto(pts[0], &s)
	if got, want := len(buf), len(tb.Lookup(pts[0])); got != want {
		t.Fatalf("LookupInto found %d buckets, Lookup %d", got, want)
	}
	buf2 := tb.LookupInto(pts[1], &s)
	if cap(buf) > 0 && len(buf2) > 0 && &buf2[0] != &buf[:1][0] {
		t.Fatal("LookupInto did not reuse the scratch backing array")
	}
	if got, want := len(buf2), len(tb.Lookup(pts[1])); got != want {
		t.Fatalf("reused LookupInto found %d buckets, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { tb.LookupInto(pts[2], &s) }); allocs != 0 {
		t.Fatalf("LookupInto with a warm scratch allocates %v times", allocs)
	}
}

// keyFamily hashes a point that is its own bucket key, so a test can
// place buckets under any keys it likes.
type keyFamily struct{}

func (keyFamily) NewHasher(int, *rng.Rand) Hasher[uint64] { return keyHasher{} }
func (keyFamily) CollisionProb(float64) float64           { return 0 }
func (keyFamily) Name() string                            { return "key" }

type keyHasher struct{}

func (keyHasher) Key(p uint64) uint64 { return p }
func (keyHasher) K() int              { return 1 }

// TestSortedBucketsAdversarialKeys: whatever the keys, SortedBuckets
// yields them strictly ascending, each with exactly the ids and sketch
// all() holds for it — before and after an Append leaves an overlay.
// The key sets make the radix sort skip every byte but one (keys
// differing in one byte at each position), take the extremes 0 and
// MaxUint64, and hold small covering-style masks next to full-width
// keys.
func TestSortedBucketsAdversarialKeys(t *testing.T) {
	const base = 0x0123456789abcdef
	oneByte := func(pos int) []uint64 {
		var ks []uint64
		for v := range 256 {
			if v%3 == 0 || v == 255 {
				ks = append(ks, base&^(0xff<<(8*pos))|uint64(v)<<(8*pos))
			}
		}
		return ks
	}
	var mixed []uint64
	for pos := range 8 {
		mixed = append(mixed, oneByte(pos)...)
	}
	for r := 1; r <= 5; r++ {
		for m := uint64(1); m < 1<<(r+1); m++ {
			mixed = append(mixed, m)
		}
	}
	mixed = append(mixed, 0, math.MaxUint64, math.MaxUint64-1, 1<<63, 1<<63-1,
		0x5555555555555555, 0xaaaaaaaaaaaaaaaa, 0x0f0f0f0f0f0f0f0f, 0xf0f0f0f0f0f0f0f0)
	sets := map[string][]uint64{
		"mixed":    mixed,
		"low byte": oneByte(0),
		"top byte": oneByte(7),
		"mid byte": oneByte(4),
		"extremes": {math.MaxUint64, 0},
		"one key":  {math.MaxUint64},
	}
	for name, keys := range sets {
		r := rng.New(uint64(len(keys)))
		// Key i carries 1–5 ids, in shuffled order, so buckets of 4 and
		// more carry sketches.
		var ordered []uint64
		for i, k := range keys {
			for range 1 + i%5 {
				ordered = append(ordered, k)
			}
		}
		pts := make([]uint64, len(ordered))
		for i, at := range r.Perm(len(pts)) {
			pts[i] = ordered[at]
		}
		tb, err := Build(pts, keyFamily{}, Params{K: 1, L: 2, HLLRegisters: 16, HLLThreshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkSortedBuckets(t, name, tb)
		// A few appends, under new keys and existing ones, stay in the
		// overlay of every table but the smallest.
		grow := []uint64{keys[0], keys[len(keys)/2], 0x1122334455667788, 7}
		if err := tb.Append(grow); err != nil {
			t.Fatal(err)
		}
		if overlay := len(tb.tables[0].over) > 0; overlay != (len(pts) >= refreezeShare*len(grow)) {
			t.Fatalf("%s: overlay %v after appending %d ids to %d", name, overlay, len(grow), len(pts))
		}
		checkSortedBuckets(t, name+" with overlay", tb)
	}
}

func checkSortedBuckets[P any](t *testing.T, name string, tb *Tables[P]) {
	t.Helper()
	for j := range tb.tables {
		want := map[uint64]Bucket{}
		for k, b := range tb.tables[j].all() {
			want[k] = b
		}
		n := 0
		prev := uint64(0)
		for k, b := range tb.SortedBuckets(j) {
			if n > 0 && k <= prev {
				t.Fatalf("%s table %d: key %#x after %#x", name, j, k, prev)
			}
			w, ok := want[k]
			if !ok || !slices.Equal(b.IDs, w.IDs) || !bytes.Equal(b.Sketch, w.Sketch) || (b.Sketch == nil) != (w.Sketch == nil) {
				t.Fatalf("%s table %d: key %#x yields %v/%v, all() holds %v/%v (present %v)", name, j, k, b.IDs, b.Sketch, w.IDs, w.Sketch, ok)
			}
			prev = k
			n++
		}
		if n != len(want) {
			t.Fatalf("%s table %d: SortedBuckets yields %d buckets, all() %d", name, j, n, len(want))
		}
	}
}

// TestProbeMatchesPerKeyFind: the two-pass probe returns, key by key and
// in the same order, exactly the buckets a per-key search of the heads
// plus an overlay read returns — for hits, misses, keys that share a
// directory slot with other buckets, keys only the overlay holds and
// keys with a frozen and an appended part, several keys per table as a
// multi-probe lookup asks.
func TestProbeMatchesPerKeyFind(t *testing.T) {
	r := rng.New(17)
	pts := make([]uint64, 600)
	for i := range pts {
		pts[i] = r.Uint64() % 400 // repeated keys: buckets of several ids
	}
	tb, err := Build(pts, keyFamily{}, Params{K: 1, L: 3, HLLRegisters: 16, HLLThreshold: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ten old keys grow a frozen bucket, ten new ones live in the overlay
	// alone; 20 appended ids stay under the re-freeze share.
	added := slices.Clone(pts[:10])
	for k := uint64(1000); k < 1010; k++ {
		added = append(added, k)
	}
	if err := tb.Append(added); err != nil {
		t.Fatal(err)
	}
	if len(tb.tables[0].over) == 0 {
		t.Fatal("test setup: the Append re-froze the table")
	}
	ref := func(j int, key uint64) []Bucket {
		tbl := &tb.tables[j]
		var bs []Bucket
		for i := range tbl.slab.len() {
			if tbl.slab.heads[i].key == key {
				bs = append(bs, tbl.slab.bucket(i))
			}
		}
		if ob := tbl.over[key]; ob != nil {
			b := Bucket{IDs: ob.ids}
			if ob.sketch != nil {
				b.Sketch = ob.sketch.Registers()
			}
			bs = append(bs, b)
		}
		return bs
	}
	var hit, miss, shared, overOnly, both int
	var s Scratch
	const perTable = 7
	for start := uint64(0); start < 1100; start += perTable {
		s.keys, s.ends = s.keys[:0], s.ends[:0]
		var want []Bucket
		for j := range tb.L() {
			for k := start; k < start+perTable; k++ {
				key := k + uint64(j) // a different key run in every table
				s.keys = append(s.keys, key)
				want = append(want, ref(j, key)...)
				slab := &tb.tables[j].slab
				frozen, over := slab.find(key) >= 0, tb.tables[j].over[key] != nil
				run := slab.run(key)
				switch {
				case frozen && over:
					both++
				case over:
					overOnly++
				case frozen:
					hit++
				default:
					miss++
				}
				if run.hi-run.lo > 1 && frozen {
					shared++
				}
			}
			s.ends = append(s.ends, len(s.keys))
		}
		if got := tb.probe(&s); !sameBuckets(got, want) {
			t.Fatalf("keys %d..: probe found %d buckets, the per-key reference %d (or their ids differ)", start, len(got), len(want))
		}
	}
	if hit == 0 || miss == 0 || shared == 0 || overOnly == 0 || both == 0 {
		t.Fatalf("key mix: %d hits, %d misses, %d in shared slots, %d overlay-only, %d frozen+overlay; want every kind", hit, miss, shared, overOnly, both)
	}
}

// TestBlockKeysLookupMatchesLookupInto: a lookup through the keys
// BlockKeys hashed for a block finds exactly LookupInto's buckets, for
// blocks under, at and over the hasher's projection block, with an
// overlay live.
func TestBlockKeysLookupMatchesLookupInto(t *testing.T) {
	r := rng.New(23)
	gauss := func(n int) []vector.Dense {
		pts := make([]vector.Dense, n)
		for i := range pts {
			pts[i] = make(vector.Dense, 16)
			for d := range pts[i] {
				pts[i][d] = float32(r.Normal())
			}
		}
		return pts
	}
	pts := gauss(500)
	tb, err := Build(pts, NewPStableL2(16, 2), Params{K: 3, L: 6, HLLRegisters: 16, HLLThreshold: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(gauss(20)); err != nil {
		t.Fatal(err)
	}
	queries := append(gauss(40), pts[:40]...)
	var keys []uint64
	var hs KeyScratch
	var s, ref Scratch
	for _, b := range []int{1, 5, 64, 65, 80} {
		block := queries[:b]
		keys = tb.BlockKeys(block, keys, &hs)
		for i, q := range block {
			want := slices.Clone(tb.LookupInto(q, &ref))
			if got := tb.LookupKeys(keys, i, b, &s); !sameBuckets(got, want) {
				t.Fatalf("block of %d, query %d: %d buckets through BlockKeys, %d through LookupInto", b, i, len(got), len(want))
			}
		}
	}
}
