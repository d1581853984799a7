package lsh_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// The two slab widths against each other. A table over at most 65 536
// points stores its ids as uint16; the same points forced wide (the
// package's test seam) must give the same tables in every way a reader
// sees them: bucket bytes, ids in order, Collisions, EstimateCandidates,
// the hybrid query's answers and the snapshot bytes.

// clustered draws n 64-bit points around 512 centres, a few bits off
// each, so that buckets share ids and queries have neighbours.
func clustered(n int, seed uint64) []vector.Binary {
	r := rng.New(7) // one set of centres for every draw
	centres := make([]uint64, 512)
	for i := range centres {
		centres[i] = r.Uint64()
	}
	r = rng.New(seed)
	pts := make([]vector.Binary, n)
	for i := range pts {
		w := centres[r.Intn(len(centres))]
		for range r.Intn(5) {
			w ^= 1 << r.Intn(64)
		}
		pts[i] = vector.Binary{Dim: 64, Words: []uint64{w}}
	}
	return pts
}

func newHammingIndex(t *testing.T, pts []vector.Binary, wide bool) *core.Index[vector.Binary] {
	t.Helper()
	defer lsh.SetForceWide(wide)()
	ix, err := core.NewIndex(pts, core.Config[vector.Binary]{
		Family:       lsh.NewBitSampling(64),
		Distance:     distance.Hamming,
		Radius:       6,
		L:            8,
		HLLRegisters: 32,
		Seed:         11,
		Store:        pointstore.BinaryHammingBuilder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// idBytes is the slab id bytes per stored id, 2 or 4: Stats counts the
// frozen ids, and every Build, refreeze and Compact below leaves no
// overlay unless the test says so.
func idBytes(t *testing.T, tb *lsh.Tables[vector.Binary]) int {
	t.Helper()
	st := tb.Stats()
	ids := st.AvgBucket * float64(st.Buckets)
	if per := float64(st.IDBytes) / ids; per == 2 || per == 4 {
		return int(per)
	}
	t.Fatalf("%d id bytes for %.0f ids", st.IDBytes, ids)
	return 0
}

// tableSum digests table j's buckets in key order: key, ids, sketch.
func tableSum(tb *lsh.Tables[vector.Binary], j int) uint64 {
	var b []byte
	for k, bk := range tb.SortedBuckets(j) {
		b = binary.LittleEndian.AppendUint64(b, k)
		for _, id := range bk.AppendIDs(nil) {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		b = append(append(b, byte(len(bk.Sketch))), bk.Sketch...)
	}
	return crc64.Checksum(b, crc64.MakeTable(crc64.ECMA))
}

// sameIndexes holds the narrow-side index a to the wide-side index b.
func sameIndexes(t *testing.T, stage string, a, b *core.Index[vector.Binary], queries []vector.Binary) {
	t.Helper()
	ta, tb := a.Tables(), b.Tables()
	if a.N() != b.N() || ta.L() != tb.L() {
		t.Fatalf("%s: %d points in %d tables vs %d in %d", stage, a.N(), ta.L(), b.N(), tb.L())
	}
	for j := range ta.L() {
		if tableSum(ta, j) != tableSum(tb, j) {
			t.Fatalf("%s: table %d buckets differ between the widths", stage, j)
		}
	}
	// The map view, which the benchmark's trace reads, holds every id
	// as int32 whatever the slab's width.
	va, vb := ta.Table(0).Buckets, tb.Table(0).Buckets
	if len(va) != len(vb) {
		t.Fatalf("%s: table 0 views hold %d and %d buckets", stage, len(va), len(vb))
	}
	for k, x := range va {
		if y := vb[k]; y == nil || len(x.IDs) == 0 || !slices.Equal(x.IDs, y.IDs) || !bytes.Equal(x.Sketch, y.Sketch) {
			t.Fatalf("%s: table 0 view of bucket %#x differs between the widths", stage, k)
		}
	}
	ha, hb := hll.New(32), hll.New(32)
	for qi, q := range queries {
		ba, bb := ta.Lookup(q), tb.Lookup(q)
		var ia, ib []int32
		for i := range ba {
			ia = ba[i].AppendIDs(ia)
		}
		for i := range bb {
			ib = bb[i].AppendIDs(ib)
		}
		if !slices.Equal(ia, ib) {
			t.Fatalf("%s: query %d finds %d ids, %d wide, or another order", stage, qi, len(ia), len(ib))
		}
		if ca, cb := lsh.Collisions(ba), lsh.Collisions(bb); ca != cb || ca != len(ia) {
			t.Fatalf("%s: query %d collisions %d vs %d (%d ids)", stage, qi, ca, cb, len(ia))
		}
		if ea, eb := ta.Estimate(ba, ha), tb.Estimate(bb, hb); math.Float64bits(ea) != math.Float64bits(eb) {
			t.Fatalf("%s: query %d estimate %v vs %v", stage, qi, ea, eb)
		}
		ida, sta := a.Query(q)
		idb, stb := b.Query(q)
		sta.EstimateTime, sta.SearchTime, stb.EstimateTime, stb.SearchTime = 0, 0, 0, 0
		if !slices.Equal(ida, idb) || sta != stb {
			t.Fatalf("%s: query %d answers %d ids %+v, wide %d ids %+v", stage, qi, len(ida), sta, len(idb), stb)
		}
	}
}

// sameSnapshots writes both indexes, requires the same bytes, reads them
// back at either width and requires each to write the same bytes again
// and answer as the original does.
func sameSnapshots(t *testing.T, stage string, a, b *core.Index[vector.Binary], queries []vector.Binary) {
	t.Helper()
	write := func(ix *core.Index[vector.Binary]) []byte {
		var buf bytes.Buffer
		if _, err := persist.Write(&buf, persist.MetricHamming, ix); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	snap := write(a)
	if !bytes.Equal(snap, write(b)) {
		t.Fatalf("%s: the widths write different snapshots", stage)
	}
	read := func(wide bool) *core.Index[vector.Binary] {
		defer lsh.SetForceWide(wide)()
		ix, _, err := persist.Read[vector.Binary](bytes.NewReader(snap), persist.MetricHamming)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ra, rb := read(false), read(true)
	want := 2
	if a.N() > 1<<16 {
		want = 4
	}
	if idBytes(t, ra.Tables()) != want || idBytes(t, rb.Tables()) != 4 {
		t.Fatalf("%s: a load of %d points picked another width than %d bytes an id", stage, a.N(), want)
	}
	if !bytes.Equal(write(ra), snap) || !bytes.Equal(write(rb), snap) {
		t.Fatalf("%s: a loaded snapshot writes other bytes", stage)
	}
	sameIndexes(t, stage+", loaded", ra, rb, queries)
	sameIndexes(t, stage+", loaded vs built", ra, a, queries)
}

func TestWidthsAgree(t *testing.T) {
	const bound = 1 << 16
	pts := clustered(bound+9008, 1)
	queries := append(clustered(40, 2), pts[:20]...)

	// Build at the bound: narrow, 2 bytes an id, against the wide twin.
	a := newHammingIndex(t, pts[:bound], false)
	b := newHammingIndex(t, pts[:bound], true)
	if idBytes(t, a.Tables()) != 2 || idBytes(t, b.Tables()) != 4 {
		t.Fatal("built at n = 65 536: want a narrow and a forced-wide slab")
	}
	hits := 0
	for _, q := range queries {
		if ids, st := a.Query(q); len(ids) > 0 && st.Strategy == core.StrategyLSH {
			hits++
		}
	}
	if hits < len(queries)/4 {
		t.Fatalf("test setup: %d of %d queries answered through LSH with ids", hits, len(queries))
	}
	sameIndexes(t, "built at 65 536", a, b, queries)
	sameSnapshots(t, "built at 65 536", a, b, queries)

	// One past the bound is wide unforced.
	if c := newHammingIndex(t, pts[:bound+1], false); idBytes(t, c.Tables()) != 4 {
		t.Fatal("built at n = 65 537: want a wide slab")
	}

	// An Append across the bound that stays in the overlay over a
	// narrow slab, ids past 65 535 included.
	a = newHammingIndex(t, pts[:bound-2], false)
	b = newHammingIndex(t, pts[:bound-2], true)
	appendBoth := func(batch []vector.Binary) {
		t.Helper()
		if err := a.Append(batch); err != nil {
			t.Fatal(err)
		}
		defer lsh.SetForceWide(true)()
		if err := b.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	appendBoth(pts[bound-2 : bound+8])
	if st := a.Tables().Stats(); st.IDBytes != 2*(bound-2)*a.Tables().L() {
		t.Fatalf("after a small Append: %d slab id bytes, want the narrow slab's %d", st.IDBytes, 2*(bound-2)*a.Tables().L())
	}
	sameIndexes(t, "appended into the overlay", a, b, append(queries, pts[bound:bound+8]...))
	sameSnapshots(t, "appended into the overlay", a, b, queries)
	// An Append whose own refreeze crosses the bound: the new slab is
	// wide, sized by the grown table's n.
	a = newHammingIndex(t, pts[:60000], false)
	b = newHammingIndex(t, pts[:60000], true)
	appendBoth(pts[60000:])
	if idBytes(t, a.Tables()) != 4 {
		t.Fatal("a refreeze past 65 536 points kept the narrow slab")
	}
	sameIndexes(t, "refrozen past the bound", a, b, append(queries, pts[len(pts)-8:]...))
	sameSnapshots(t, "refrozen past the bound", a, b, queries)

	// Compact back under the bound: narrow again.
	r := rng.New(3)
	dead := make([]bool, a.N())
	live := 0
	for i := range dead {
		dead[i] = i >= bound || r.Intn(9) == 0
		if !dead[i] {
			live++
		}
	}
	ca, err := a.Compact(dead)
	if err != nil {
		t.Fatal(err)
	}
	restore := lsh.SetForceWide(true)
	cb, err := b.Compact(dead)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	a, b = ca, cb
	if a.N() != live || idBytes(t, a.Tables()) != 2 || idBytes(t, b.Tables()) != 4 {
		t.Fatalf("compacted to %d points: want a narrow and a forced-wide slab", live)
	}
	sameIndexes(t, "compacted under the bound", a, b, queries)
	sameSnapshots(t, "compacted under the bound", a, b, queries)
}

// TestStatsCountSlabBytes pins the byte floor: 2 bytes per stored id for
// a table over at most 65 536 points, 4 above, and the heads and
// directory beside them.
func TestStatsCountSlabBytes(t *testing.T) {
	for _, n := range []int{100, 1 << 16, 1<<16 + 1} {
		pts := clustered(n, 5)
		tb, err := lsh.Build(pts, lsh.NewBitSampling(64), lsh.Params{K: 12, L: 3, HLLRegisters: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		st := tb.Stats()
		per := 2
		if n > 1<<16 {
			per = 4
		}
		if want := per * n * tb.L(); st.IDBytes != want {
			t.Fatalf("n = %d: IDBytes = %d, want %d (%d per id)", n, st.IDBytes, want, per)
		}
		// A head is a 16-byte (key, offset, sketch) triple per bucket plus
		// the closing one; the directory holds at least two entries.
		if floor := 16*(st.Buckets+tb.L()) + 8*tb.L(); st.HeadBytes < floor {
			t.Fatalf("n = %d: HeadBytes = %d for %d buckets, want at least %d", n, st.HeadBytes, st.Buckets, floor)
		}
	}
}
