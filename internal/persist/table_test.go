package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// The table decoder, driven through spliced "tabl" payloads: a snapshot
// is taken apart into sections, one table's bucket list is decoded by
// the helpers below (independently of the package's own codec), edited
// and re-encoded, and the sections are re-framed with fresh CRCs, so
// every case reaches the bucket decoder with a valid frame.

type rawSection struct {
	tag     string
	payload []byte
}

type rawBucket struct {
	key  uint64
	ids  []int32
	flag byte
	regs []byte
}

// snapHeaderLen is magic[14] | version u32 | kind u8.
const snapHeaderLen = 14 + 4 + 1

func splitSections(t *testing.T, snap []byte) []rawSection {
	t.Helper()
	var out []rawSection
	for off := snapHeaderLen; off < len(snap); {
		n := int(binary.LittleEndian.Uint64(snap[off+4:]))
		out = append(out, rawSection{string(snap[off : off+4]), snap[off+12 : off+12+n]})
		off += 12 + n + 4
	}
	return out
}

func joinSections(header []byte, secs []rawSection) []byte {
	var buf bytes.Buffer
	buf.Write(header[:snapHeaderLen])
	for _, s := range secs {
		if err := writeSection(&buf, s.tag, s.payload); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

func parseBuckets(t *testing.T, b []byte, m int) []rawBucket {
	t.Helper()
	nb := int(binary.LittleEndian.Uint64(b))
	b = b[8:]
	out := make([]rawBucket, nb)
	for i := range out {
		out[i].key = binary.LittleEndian.Uint64(b)
		nids := int(binary.LittleEndian.Uint32(b[8:]))
		b = b[12:]
		for k := 0; k < nids; k++ {
			out[i].ids = append(out[i].ids, int32(binary.LittleEndian.Uint32(b[4*k:])))
		}
		b = b[4*nids:]
		out[i].flag = b[0]
		b = b[1:]
		if out[i].flag == 1 {
			out[i].regs = append([]byte(nil), b[:m]...)
			b = b[m:]
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the bucket list", len(b))
	}
	return out
}

func encodeBuckets(count int, bs []rawBucket) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(count))
	for _, x := range bs {
		b = binary.LittleEndian.AppendUint64(b, x.key)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(x.ids)))
		for _, id := range x.ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		b = append(b, x.flag)
		b = append(b, x.regs...)
	}
	return b
}

func cloneBuckets(bs []rawBucket) []rawBucket {
	out := make([]rawBucket, len(bs))
	for i, b := range bs {
		out[i] = rawBucket{b.key, slices.Clone(b.ids), b.flag, slices.Clone(b.regs)}
	}
	return out
}

func TestTableSectionDecoding(t *testing.T) {
	const dim = 64
	ix, err := core.NewIndex(binaryData(tn, dim, 5), cfg[vector.Binary](lsh.NewBitSampling(dim), distance.Hamming, 12))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricHamming, ix); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	secs := splitSections(t, snap)
	if len(secs) == 0 || secs[0].tag != "meta" {
		t.Fatal("snapshot does not start with a meta section")
	}
	m, err := decodeIndexMeta(secs[0].payload, MetricHamming)
	if err != nil {
		t.Fatal(err)
	}
	c, err := codecFor[vector.Binary](MetricHamming)
	if err != nil {
		t.Fatal(err)
	}

	// Every table's hasher prefix and decoded bucket list.
	type table struct {
		sec     int
		prefix  []byte
		buckets []rawBucket
	}
	var tables []table
	for i, s := range secs {
		if s.tag != "tabl" {
			continue
		}
		d := &dec{b: s.payload}
		if _, err := c.readHasher(d, m); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, table{i, s.payload[:d.off], parseBuckets(t, s.payload[d.off:], m.params.HLLRegisters)})
	}
	if len(tables) != ix.L() {
		t.Fatalf("%d tabl sections, want %d", len(tables), ix.L())
	}
	tab := tables[0]
	sketched := slices.IndexFunc(tab.buckets, func(b rawBucket) bool { return b.flag == 1 })
	if len(tab.buckets) < 2 || sketched < 0 {
		t.Fatalf("table 0 has %d buckets, sketched one at %d: too few to edit", len(tab.buckets), sketched)
	}

	// splice rewrites every table through edit and returns the snapshot.
	splice := func(edit func(j int, bs []rawBucket) (int, []rawBucket)) []byte {
		out := slices.Clone(secs)
		for j, tb := range tables {
			count, bs := edit(j, cloneBuckets(tb.buckets))
			out[tb.sec].payload = append(slices.Clone(tb.prefix), encodeBuckets(count, bs)...)
		}
		return joinSections(snap, out)
	}
	// unchanged keeps a table as written.
	unchanged := func(bs []rawBucket) (int, []rawBucket) { return len(bs), bs }
	if got := splice(func(_ int, bs []rawBucket) (int, []rawBucket) { return unchanged(bs) }); !bytes.Equal(got, snap) {
		t.Fatal("the test's own re-encoding does not reproduce the snapshot")
	}

	t.Run("KeysOutOfOrder", func(t *testing.T) {
		reversed := splice(func(_ int, bs []rawBucket) (int, []rawBucket) {
			slices.Reverse(bs)
			return len(bs), bs
		})
		loaded, _, err := readIndex[vector.Binary](bytes.NewReader(reversed), MetricHamming)
		if err != nil {
			t.Fatalf("reversed bucket order: %v", err)
		}
		assertIdentical(t, ix, loaded, binaryData(tq, dim, 6))
		var again bytes.Buffer
		if _, err := Write(&again, MetricHamming, loaded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatal("re-writing the loaded index does not give the sorted snapshot back")
		}
	})

	corrupt := map[string]func(bs []rawBucket) (int, []rawBucket){
		"DuplicateKey": func(bs []rawBucket) (int, []rawBucket) {
			bs[len(bs)-1].key = bs[0].key
			return len(bs), bs
		},
		"EmptyBucket": func(bs []rawBucket) (int, []rawBucket) {
			bs[1].ids = nil
			return len(bs), bs
		},
		"IDOutOfRange": func(bs []rawBucket) (int, []rawBucket) {
			bs[1].ids[0] = int32(tn)
			return len(bs), bs
		},
		// This table is narrow (n < 65 536): an id that wraps to a
		// valid one in 16 bits must be refused before it is narrowed.
		"IDWrapsNarrow": func(bs []rawBucket) (int, []rawBucket) {
			bs[1].ids[0] += 1 << 16
			return len(bs), bs
		},
		"NegativeID": func(bs []rawBucket) (int, []rawBucket) {
			bs[0].ids[0] = -1
			return len(bs), bs
		},
		"SketchFlag2": func(bs []rawBucket) (int, []rawBucket) {
			bs[sketched].flag = 2
			return len(bs), bs
		},
		"RegisterRank65": func(bs []rawBucket) (int, []rawBucket) {
			bs[sketched].regs[3] = 65
			return len(bs), bs
		},
		"CountTooHigh": func(bs []rawBucket) (int, []rawBucket) {
			return len(bs) + 1, bs
		},
		"CountTooLow": func(bs []rawBucket) (int, []rawBucket) {
			return len(bs) - 1, bs
		},
	}
	for name, edit := range corrupt {
		t.Run(name, func(t *testing.T) {
			bad := splice(func(j int, bs []rawBucket) (int, []rawBucket) {
				if j != 0 {
					return unchanged(bs)
				}
				return edit(bs)
			})
			if _, _, err := Read[vector.Binary](bytes.NewReader(bad), MetricHamming); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSnapshotsAndQueriesBuildNoTableView: writing a snapshot (plain,
// multi-probe, covering; with appended buckets still in the overlay),
// reading it back and serving queries over either side never builds the
// lsh.Tables map view — only tracing and white-box tests ask for it.
func TestSnapshotsAndQueriesBuildNoTableView(t *testing.T) {
	l2, err := core.NewIndex(denseData(tn, tdim, 1), cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(denseData(3, tdim, 9)); err != nil {
		t.Fatal(err)
	}
	for _, probes := range []int{0, 4} {
		ix, queries := l2, denseData(20, tdim, 2)
		if probes > 0 {
			ix, queries = buildMultiProbe(t, probes), denseData(20, 4, 2)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricL2, ix); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := Read[vector.Dense](bytes.NewReader(buf.Bytes()), MetricL2)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*core.Index[vector.Dense]{ix, loaded} {
			for _, q := range queries {
				x.Query(q)
				x.QueryLSH(q)
				x.EstimateCandSize(q)
				x.DecideStrategy(q)
			}
			x.QueryBatch(queries, 2)
			if x.Tables().Viewed() {
				t.Fatalf("probes %d: a snapshot write or query built the map view", probes)
			}
		}
	}

	cov := buildCoveringIndex(t, 300, 3)
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricHamming, cov); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := readCovering(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*core.Index[vector.Binary]{cov, loaded} {
		for _, q := range coveringData(20, 64, 4) {
			x.Query(q)
		}
		if x.Tables().Viewed() {
			t.Fatal("covering: a snapshot write or query built the map view")
		}
	}

	// The detector itself.
	l2.Tables().Table(0)
	if !l2.Tables().Viewed() {
		t.Fatal("Viewed misses a built view")
	}
}

// TestSnapshotLoadAllocatesPerTable: decoding a table costs a fixed
// number of allocations whatever its bucket count — ten times the points
// (and about ten times the buckets) add only the few extra buffer
// growths of the larger sections, not one allocation per bucket.
func TestSnapshotLoadAllocatesPerTable(t *testing.T) {
	allocs := func(n int) (float64, int) {
		c := cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4)
		c.K = 12 // about one point per bucket
		ix, err := core.NewIndex(denseData(n, tdim, 1), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricL2, ix); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		a := testing.AllocsPerRun(5, func() {
			if _, _, err := Read[vector.Dense](bytes.NewReader(snap), MetricL2); err != nil {
				t.Fatal(err)
			}
		})
		return a, ix.Tables().Stats().Buckets
	}
	small, smallBuckets := allocs(tn)
	big, bigBuckets := allocs(10 * tn)
	L := cfg[vector.Dense](nil, nil, 0).L
	if bigBuckets < 5*smallBuckets {
		t.Fatalf("test setup: %d buckets at 10× the points vs %d", bigBuckets, smallBuckets)
	}
	if big-small > float64(8*(L+3)) {
		t.Fatalf("loading %d buckets allocates %.0f times, %d buckets %.0f: more than 8 more per section",
			bigBuckets, big, smallBuckets, small)
	}
	t.Logf("%d buckets: %.0f allocations; %d buckets: %.0f", smallBuckets, small, bigBuckets, big)
}

// TestOverlaySnapshotBytes pins the writer's overlay path: a snapshot
// taken while the tables hold appended ids in their overlays (fewer
// appends since the freeze than the tables' refreeze share of an eighth
// of their ids) must equal, byte for byte, the snapshot of the same
// index loaded back, whose tables are slabs alone. Half the appended
// points repeat indexed ones, so the overlay both extends frozen buckets
// (some past the sketch threshold) and adds buckets of its own.
func TestOverlaySnapshotBytes(t *testing.T) {
	l2pts := denseData(tn, tdim, 21)
	l2grow := append(slices.Clone(l2pts[:12]), denseData(12, tdim, 91)...)
	l2, err := core.NewIndex(l2pts, cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	checkOverlayBytes[vector.Dense](t, "l2", MetricL2, l2, l2grow)

	mpCfg := cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4)
	mpCfg.Probes = 6
	mp, err := core.NewIndex(l2pts, mpCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOverlayBytes[vector.Dense](t, "multiprobe", MetricL2, mp, l2grow)

	const dim = 64
	hpts := binaryData(tn, dim, 22)
	ham, err := core.NewIndex(hpts, cfg[vector.Binary](lsh.NewBitSampling(dim), distance.Hamming, 12))
	if err != nil {
		t.Fatal(err)
	}
	checkOverlayBytes[vector.Binary](t, "hamming", MetricHamming, ham, append(slices.Clone(hpts[:12]), binaryData(12, dim, 92)...))

	cgrow := append(coveringData(12, dim, 23), coveringData(12, dim, 93)...)
	checkOverlayBytes[vector.Binary](t, "covering", MetricHamming, buildCoveringIndex(t, tn, 23), cgrow)
}

func checkOverlayBytes[P any](t *testing.T, name, metric string, st *core.Index[P], grow []P) {
	t.Helper()
	if err := st.Append(grow); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var snap, again bytes.Buffer
	if _, err := Write(&snap, metric, st); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	loaded, _, err := Read[P](bytes.NewReader(snap.Bytes()), metric)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := Write(&again, metric, loaded); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatalf("%s: the snapshot written with live overlays (%d bytes) differs from the slab-only rewrite (%d bytes)", name, snap.Len(), again.Len())
	}
}

// BenchmarkKernelSnapshotWrite writes the snapshot of a
// dense128-batch-shaped shard, scaled to a short benchmark: 8 192 points
// at d = 128 in 64 tight clusters, L = 50 tables of k = 7, 128-register
// sketches (about 1.3 ids per bucket, as the benchmark's shards hold).
// MB/s is snapshot bytes per second; the points section is a plain copy,
// so the tables' key order and encoding set the rate.
func BenchmarkKernelSnapshotWrite(b *testing.B) {
	ix := denseShard(b)
	size, err := Write(io.Discard, MetricL2, ix)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	for b.Loop() {
		if _, err := Write(io.Discard, MetricL2, ix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSnapshotRead loads the snapshot BenchmarkKernelSnapshotWrite
// writes: MB/s is snapshot bytes per second, B/op what one load
// allocates (the loaded index itself included).
func BenchmarkKernelSnapshotRead(b *testing.B) {
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricL2, denseShard(b)); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Read[vector.Dense](bytes.NewReader(snap), MetricL2); err != nil {
			b.Fatal(err)
		}
	}
}

// denseShard builds the snapshot benchmarks' dense128-batch-shaped shard.
func denseShard(b *testing.B) *core.Index[vector.Dense] {
	const n, dim, clusters = 8192, 128, 64
	r := rng.New(7)
	centres := denseData(clusters, dim, 8)
	pts := make([]vector.Dense, n)
	for i := range pts {
		c := centres[i%clusters]
		pts[i] = make(vector.Dense, dim)
		for d := range pts[i] {
			pts[i][d] = c[d] + float32(0.03*r.Normal())
		}
	}
	ix, err := core.NewIndex(pts, core.Config[vector.Dense]{
		Family:       lsh.NewPStableL2(dim, 0.6),
		Distance:     distance.L2,
		Radius:       0.3,
		Delta:        0.1,
		K:            7,
		L:            50,
		HLLRegisters: 128,
		Seed:         7,
		Store:        pointstore.DenseL2Builder(pointstore.ModeOff),
	})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}
