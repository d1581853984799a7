package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// ---- data generators ----

func denseData(n, dim int, seed uint64) []vector.Dense {
	r := rng.New(seed)
	pts := make([]vector.Dense, n)
	for i := range pts {
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = float32(r.Float64())
		}
		pts[i] = p
	}
	return pts
}

func unitData(n, dim int, seed uint64) []vector.Dense {
	pts := denseData(n, dim, seed)
	for i := range pts {
		for j := range pts[i] {
			pts[i][j] -= 0.5
		}
		pts[i].Normalize()
	}
	return pts
}

func binaryData(n, dim int, seed uint64) []vector.Binary {
	r := rng.New(seed)
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.4 {
				b.SetBit(j, true)
			}
		}
		pts[i] = b
	}
	return pts
}

func sparseData(n, dim, nnz int, seed uint64) []vector.Sparse {
	r := rng.New(seed)
	pts := make([]vector.Sparse, n)
	for i := range pts {
		idx := r.Sample(dim, nnz)
		idx32 := make([]int32, nnz)
		val := make([]float32, nnz)
		for k := range idx32 {
			idx32[k] = int32(idx[k])
			val[k] = float32(r.Float64() + 0.1)
		}
		pts[i] = vector.NewSparse(dim, idx32, val)
	}
	return pts
}

// ---- per-metric fixtures ----

// cfg builds small indexes with a low HLL threshold so buckets actually
// carry sketches the round trip must preserve.
func cfg[P any](fam lsh.Family[P], dist distance.Func[P], r float64) core.Config[P] {
	return core.Config[P]{
		Family:       fam,
		Distance:     dist,
		Radius:       r,
		Delta:        0.1,
		L:            6,
		HLLRegisters: 16,
		HLLThreshold: 4,
		Seed:         7,
	}
}

const (
	tn   = 400 // indexed points
	tq   = 100 // seeded queries (the issue's "100 seeded queries")
	tdim = 10
)

// roundTrip saves ix, reloads it and checks the pair answers the query
// set identically: same sorted ids, same strategy, same collision count
// and the same HLL candidate estimate, query by query.
func roundTrip[P any](t *testing.T, metric string, ix *core.Index[P], queries []P) *core.Index[P] {
	t.Helper()
	var buf bytes.Buffer
	n, err := Write(&buf, metric, ix)
	if err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteIndex reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, meta, err := readIndex[P](bytes.NewReader(buf.Bytes()), metric)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if meta.Metric != metric || meta.N != ix.N() || meta.L != ix.L() || meta.K != ix.K() {
		t.Fatalf("meta = %+v, want metric %s n %d L %d k %d", meta, metric, ix.N(), ix.L(), ix.K())
	}
	assertIdentical(t, ix, loaded, queries)

	// Writer determinism: re-encoding the loaded index must reproduce
	// the snapshot byte for byte.
	var buf2 bytes.Buffer
	if _, err := Write(&buf2, metric, loaded); err != nil {
		t.Fatalf("re-encoding loaded index: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded snapshot differs from the original (%d vs %d bytes)", buf.Len(), buf2.Len())
	}
	return loaded
}

func assertIdentical[P any](t *testing.T, want, got *core.Index[P], queries []P) {
	t.Helper()
	if got.N() != want.N() || got.K() != want.K() || got.L() != want.L() ||
		got.Radius() != want.Radius() || got.Delta() != want.Delta() ||
		got.P1() != want.P1() || got.Cost() != want.Cost() {
		t.Fatalf("loaded index parameters differ: got n=%d k=%d L=%d r=%v δ=%v p1=%v cost=%+v",
			got.N(), got.K(), got.L(), got.Radius(), got.Delta(), got.P1(), got.Cost())
	}
	lshDecisions := 0
	for qi, q := range queries {
		wids, wstats := want.Query(q)
		gids, gstats := got.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) {
			t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
		}
		if gstats.Strategy != wstats.Strategy {
			t.Fatalf("query %d: strategy %v != %v", qi, gstats.Strategy, wstats.Strategy)
		}
		if gstats.Collisions != wstats.Collisions || gstats.EstCandidates != wstats.EstCandidates {
			t.Fatalf("query %d: decision inputs (%d, %v) != (%d, %v)",
				qi, gstats.Collisions, gstats.EstCandidates, wstats.Collisions, wstats.EstCandidates)
		}
		wc, west, _ := want.EstimateCandSize(q)
		gc, gest, _ := got.EstimateCandSize(q)
		if wc != gc || west != gest {
			t.Fatalf("query %d: full HLL estimate (%d, %v) != (%d, %v)", qi, gc, gest, wc, west)
		}
		if wstats.Strategy == core.StrategyLSH {
			lshDecisions++
		}
	}
	if lshDecisions == 0 || lshDecisions == len(queries) {
		t.Logf("note: all %d queries chose the same strategy (%d LSH)", len(queries), lshDecisions)
	}
}

func TestRoundTripL2(t *testing.T) {
	pts := denseData(tn, tdim, 1)
	ix, err := core.NewIndex(pts, cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, MetricL2, ix, denseData(tq, tdim, 2))
}

func TestRoundTripL1(t *testing.T) {
	pts := denseData(tn, tdim, 3)
	ix, err := core.NewIndex(pts, cfg[vector.Dense](lsh.NewPStableL1(tdim, 4.0), distance.L1, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, MetricL1, ix, denseData(tq, tdim, 4))
}

func TestRoundTripHamming(t *testing.T) {
	const dim = 64
	pts := binaryData(tn, dim, 5)
	ix, err := core.NewIndex(pts, cfg[vector.Binary](lsh.NewBitSampling(dim), distance.Hamming, 12))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, MetricHamming, ix, binaryData(tq, dim, 6))
}

func TestRoundTripCosine(t *testing.T) {
	const dim = 60
	pts := sparseData(tn, dim, 8, 7)
	ix, err := core.NewIndex(pts, cfg[vector.Sparse](lsh.NewSimHashCosine(dim), distance.Cosine, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, MetricCosine, ix, sparseData(tq, dim, 8, 8))
}

func TestRoundTripJaccard(t *testing.T) {
	const dim = 64
	pts := binaryData(tn, dim, 9)
	ix, err := core.NewIndex(pts, cfg[vector.Binary](lsh.NewMinHash(dim), distance.Jaccard, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, MetricJaccard, ix, binaryData(tq, dim, 10))
}

func TestRoundTripAngular(t *testing.T) {
	const dim = 8
	pts := unitData(tn, dim, 11)
	fam := lsh.NewCrossPolytope(dim, 99)
	ix, err := core.NewIndex(pts, cfg[vector.Dense](fam, distance.AngularDense, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, MetricAngular, ix, unitData(tq, dim, 12))

	// The calibrated collision-probability curve must survive the trip.
	got, ok := loaded.Family().(*lsh.CrossPolytope)
	if !ok {
		t.Fatalf("loaded family is %T", loaded.Family())
	}
	if !slices.Equal(got.ProbsTable(), fam.ProbsTable()) {
		t.Fatalf("calibrated curve changed: %v != %v", got.ProbsTable(), fam.ProbsTable())
	}
}

// TestRoundTripAfterAppend ensures a snapshot taken after incremental
// growth (appended points, sketches built past the threshold) reloads
// identically too.
func TestRoundTripAfterAppend(t *testing.T) {
	pts := denseData(tn, tdim, 13)
	ix, err := core.NewIndex(pts, cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(denseData(150, tdim, 14)); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, MetricL2, ix, denseData(tq, tdim, 15))
}

// ---- sharded round trip ----

func newShardedL2(t *testing.T, pts []vector.Dense, shards int, seed uint64) *shard.Sharded[vector.Dense] {
	t.Helper()
	s, err := shard.New(pts, shards, seed, func(part []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		c := cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4)
		c.Seed = seed
		return core.NewIndex(part, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shardedRoundTrip(t *testing.T, s *shard.Sharded[vector.Dense]) (*shard.Sharded[vector.Dense], []byte) {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSharded(&buf, MetricL2, s)
	if err != nil {
		t.Fatalf("WriteSharded: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSharded reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, meta, err := ReadSharded[vector.Dense](bytes.NewReader(buf.Bytes()), MetricL2)
	if err != nil {
		t.Fatalf("ReadSharded: %v", err)
	}
	if meta.Shards != s.Shards() || meta.N != s.N() {
		t.Fatalf("meta = %+v, want %d shards, %d live", meta, s.Shards(), s.N())
	}
	return loaded, buf.Bytes()
}

func assertShardedIdentical(t *testing.T, want, got *shard.Sharded[vector.Dense], queries []vector.Dense) {
	t.Helper()
	if got.N() != want.N() || got.Shards() != want.Shards() || got.Deleted() != want.Deleted() {
		t.Fatalf("loaded sharded index: n=%d shards=%d deleted=%d, want n=%d shards=%d deleted=%d",
			got.N(), got.Shards(), got.Deleted(), want.N(), want.Shards(), want.Deleted())
	}
	for qi, q := range queries {
		wids, wstats := want.Query(q)
		gids, gstats := got.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) {
			t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
		}
		if gstats.LSHShards != wstats.LSHShards || gstats.LinearShards != wstats.LinearShards {
			t.Fatalf("query %d: strategy mix (%d lsh, %d linear) != (%d, %d)",
				qi, gstats.LSHShards, gstats.LinearShards, wstats.LSHShards, wstats.LinearShards)
		}
	}
}

// assertShardedSameResults compares only the reported id sets. After a
// compacting save the reloaded shards hold smaller buckets than the
// live structure (which filters tombstones at query time instead), so
// the hybrid decision may legitimately differ per shard — but both
// sides report the same live neighbors.
func assertShardedSameResults(t *testing.T, want, got *shard.Sharded[vector.Dense], queries []vector.Dense) {
	t.Helper()
	if got.N() != want.N() || got.Shards() != want.Shards() || got.Deleted() != want.Deleted() {
		t.Fatalf("loaded sharded index: n=%d shards=%d deleted=%d, want n=%d shards=%d deleted=%d",
			got.N(), got.Shards(), got.Deleted(), want.N(), want.Shards(), want.Deleted())
	}
	for qi, q := range queries {
		wids, _ := want.Query(q)
		gids, _ := got.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) {
			t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
		}
	}
}

func TestRoundTripSharded(t *testing.T) {
	s := newShardedL2(t, denseData(tn, tdim, 16), 4, 17)
	if _, err := s.Append(denseData(60, tdim, 18)); err != nil {
		t.Fatal(err)
	}
	loaded, _ := shardedRoundTrip(t, s)
	assertShardedIdentical(t, s, loaded, denseData(tq, tdim, 19))

	// Appends continue from the saved high-water mark.
	ids, err := loaded.Append(denseData(5, tdim, 20))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if want := int32(tn + 60 + i); id != want {
			t.Fatalf("post-reload append id %d, want %d", id, want)
		}
	}
}

// TestShardedDeleteSurvivesReload is the Delete→save→load regression
// test: tombstoned ids stay deleted after the reload, and the deleted
// points are compacted out of the snapshot instead of being serialized
// as live points.
func TestShardedDeleteSurvivesReload(t *testing.T) {
	pts := denseData(tn, tdim, 21)
	s := newShardedL2(t, pts, 4, 22)

	// Tombstone every id congruent 1 mod 4 (one whole shard's worth of
	// build points lands in shard 1) plus a few spread-out ids.
	var doomed []int32
	for id := int32(1); id < tn; id += 4 {
		doomed = append(doomed, id)
	}
	doomed = append(doomed, 0, 2, 6)
	if got := s.Delete(doomed); got != len(doomed) {
		t.Fatalf("Delete removed %d ids, want %d", got, len(doomed))
	}
	live := tn - len(doomed)

	loaded, raw := shardedRoundTrip(t, s)
	assertShardedSameResults(t, s, loaded, denseData(tq, tdim, 23))

	if loaded.N() != live {
		t.Fatalf("loaded live count %d, want %d", loaded.N(), live)
	}
	// Compaction proof: the shards hold exactly the live points — the
	// tombstoned ones are gone from the snapshot, not filtered at query
	// time.
	sizes := loaded.ShardSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total != live {
		t.Fatalf("loaded shards hold %d points (%v), want exactly the %d live ones", total, sizes, live)
	}

	// No query may ever report a tombstoned id again.
	dead := make(map[int32]bool, len(doomed))
	for _, id := range doomed {
		dead[id] = true
	}
	for qi, q := range denseData(tq, tdim, 24) {
		ids, _ := loaded.Query(q)
		for _, id := range ids {
			if dead[id] {
				t.Fatalf("query %d reported tombstoned id %d after reload", qi, id)
			}
		}
	}

	// Deleting the same ids again is a no-op (the tombstones survived),
	// and fresh appends do not reuse the dead ids.
	if got := loaded.Delete(doomed); got != 0 {
		t.Fatalf("re-deleting tombstoned ids removed %d, want 0", got)
	}
	ids, err := loaded.Append(denseData(3, tdim, 25))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id < tn {
			t.Fatalf("append reused id %d from the tombstoned range", id)
		}
	}

	// A second save of the loaded structure must be stable (compaction
	// is idempotent). Delete the appended points first so the byte
	// streams are comparable.
	loaded.Delete(ids)
	var buf2 bytes.Buffer
	if _, err := WriteSharded(&buf2, MetricL2, loaded); err != nil {
		t.Fatal(err)
	}
	// Not byte-identical to raw: the re-save compacts the three newly
	// deleted appended ids too. But reloading it must still agree.
	reloaded, _, err := ReadSharded[vector.Dense](bytes.NewReader(buf2.Bytes()), MetricL2)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedSameResults(t, loaded, reloaded, denseData(20, tdim, 26))
	_ = raw
}

// TestShardedFullyEmptiedShard deletes every point of one shard and
// checks the snapshot still round-trips (the shard is stored empty).
func TestShardedFullyEmptiedShard(t *testing.T) {
	s := newShardedL2(t, denseData(40, tdim, 27), 4, 28)
	// Build points are distributed round-robin: shard 2 holds ids ≡ 2
	// (mod 4).
	var doomed []int32
	for id := int32(2); id < 40; id += 4 {
		doomed = append(doomed, id)
	}
	s.Delete(doomed)

	loaded, _ := shardedRoundTrip(t, s)
	assertShardedSameResults(t, s, loaded, denseData(30, tdim, 29))
	if got := loaded.ShardSizes()[2]; got != 0 {
		t.Fatalf("emptied shard reloaded with %d points", got)
	}
}

// ---- error paths ----

func validSnapshot(t *testing.T) []byte {
	t.Helper()
	pts := denseData(60, tdim, 30)
	ix, err := core.NewIndex(pts, cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, MetricL2, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRejectsBadMagic(t *testing.T) {
	snap := validSnapshot(t)
	snap[0] ^= 0xff
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(snap), MetricL2); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadRejectsFutureVersion(t *testing.T) {
	snap := validSnapshot(t)
	snap[len(magic)] = 2 // version u32 LSB
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(snap), MetricL2); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestReadRejectsMetricMismatch(t *testing.T) {
	snap := validSnapshot(t)
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(snap), MetricL1); !errors.Is(err, ErrMetric) {
		t.Fatalf("err = %v, want ErrMetric", err)
	}
	// And a point-type mismatch fails before any decoding.
	if _, _, err := readIndex[vector.Binary](bytes.NewReader(snap), MetricL2); err == nil {
		t.Fatal("reading an l2 snapshot as binary points succeeded")
	}
}

func TestReadShardedRejectsMetricMismatch(t *testing.T) {
	s := newShardedL2(t, denseData(40, tdim, 50), 2, 51)
	var buf bytes.Buffer
	if _, err := WriteSharded(&buf, MetricL2, s); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSharded[vector.Dense](bytes.NewReader(buf.Bytes()), MetricL1); !errors.Is(err, ErrMetric) {
		t.Fatalf("err = %v, want ErrMetric", err)
	}
}

func TestReadRejectsWrongKind(t *testing.T) {
	snap := validSnapshot(t)
	if _, _, err := ReadSharded[vector.Dense](bytes.NewReader(snap), MetricL2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt (plain snapshot via sharded reader)", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	snap := validSnapshot(t)
	// Flip one byte in every region of the file; each flip must yield a
	// clean error (CRC mismatch or a validation failure), never a panic
	// or silent success reading different data.
	step := len(snap)/97 + 1
	for off := len(magic) + 5; off < len(snap); off += step {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x5a
		ix, _, err := readIndex[vector.Dense](bytes.NewReader(mut), MetricL2)
		if err == nil {
			// A flipped byte inside a section payload cannot pass its
			// CRC; flips in the framing fail structurally.
			t.Fatalf("corruption at offset %d went unnoticed (index n=%d)", off, ix.N())
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	snap := validSnapshot(t)
	for _, n := range []int{0, 3, len(magic), len(magic) + 4, len(magic) + 10, len(snap) / 3, len(snap) - 1} {
		if _, _, err := readIndex[vector.Dense](bytes.NewReader(snap[:n]), MetricL2); err == nil {
			t.Fatalf("truncation to %d bytes went unnoticed", n)
		}
	}
}

func TestReadRejectsTrailingGarbage(t *testing.T) {
	// Trailing bytes after "end!" are ignored by design (the reader
	// consumes exactly one snapshot), but a corrupt trailing section
	// inside the stream is not. Verify a snapshot truncated mid-table
	// errors even when the length field claims more data follows.
	snap := validSnapshot(t)
	if _, _, err := readIndex[vector.Dense](bytes.NewReader(snap[:len(snap)-6]), MetricL2); err == nil {
		t.Fatal("missing terminator went unnoticed")
	}
}

// TestWriteFileAtomicSyncsDirAfterRename: the directory is synced once
// the snapshot has been renamed into place, and a failing sync fails the
// call, so no caller treats an undurable rename as durable.
func TestWriteFileAtomicSyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.snap")
	payload := []byte("snapshot bytes")
	write := func(w io.Writer) (int64, error) {
		n, err := w.Write(payload)
		return int64(n), err
	}
	defer func(orig func(string) error) { SyncDir = orig }(SyncDir)
	var synced []string
	boom := errors.New("directory fsync failed")
	SyncDir = func(d string) error {
		synced = append(synced, d)
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("directory synced before the rename: %s holds %q (%v)", path, got, err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, ".snap-*.tmp")); len(tmps) != 0 {
			t.Errorf("directory synced while %v remain", tmps)
		}
		return boom
	}
	if _, err := WriteFileAtomic(path, write); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic with a failing directory sync returned %v, want %v", err, boom)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("synced %q, want [%q]", synced, dir)
	}
}

// TestWriteFileAtomicDirSyncUnsupported: a filesystem that cannot fsync
// a directory (EINVAL, ENOTSUP) does not fail the write; the snapshot is
// in place and its size is returned.
func TestWriteFileAtomicDirSyncUnsupported(t *testing.T) {
	defer func(orig func(string) error) { SyncDir = orig }(SyncDir)
	for _, errno := range []syscall.Errno{syscall.EINVAL, syscall.ENOTSUP} {
		dir := t.TempDir()
		path := filepath.Join(dir, "index.snap")
		SyncDir = func(d string) error { return &os.PathError{Op: "sync", Path: d, Err: errno} }
		n, err := WriteFileAtomic(path, func(w io.Writer) (int64, error) {
			n, err := w.Write([]byte("snapshot bytes"))
			return int64(n), err
		})
		if err != nil || n != int64(len("snapshot bytes")) {
			t.Fatalf("directory sync failing with %v: WriteFileAtomic = %d, %v; want %d, nil", errno, n, err, len("snapshot bytes"))
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "snapshot bytes" {
			t.Fatalf("directory sync failing with %v: %s holds %q (%v)", errno, path, got, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/index.snap"
	pts := denseData(60, tdim, 31)
	ix, err := core.NewIndex(pts, cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	n, err := WriteFileAtomic(path, func(w io.Writer) (int64, error) {
		return Write(w, MetricL2, ix)
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	if st.Size() != n {
		t.Fatalf("file holds %d bytes, writer reported %d", st.Size(), n)
	}
	if _, _, err := readIndex[vector.Dense](f, MetricL2); err != nil {
		t.Fatal(err)
	}
	// A failing write must leave neither the target nor temp files.
	if _, err := WriteFileAtomic(dir+"/bad.snap", func(w io.Writer) (int64, error) {
		return 0, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("failing writer reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "index.snap" {
			t.Fatalf("leftover file %q after failed atomic write", e.Name())
		}
	}
}

// TestSnapshotUnderTraffic serializes a sharded index while queries,
// appends and deletes hammer it; run under -race this proves the
// Snapshot view's locking. The snapshot must decode cleanly and hold a
// consistent id space whichever instant it captured.
func TestSnapshotUnderTraffic(t *testing.T) {
	s := newShardedL2(t, denseData(tn, tdim, 40), 4, 41)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := denseData(20, tdim, uint64(42+w))
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					s.Query(queries[i%len(queries)])
				case 1:
					if ids, err := s.Append(queries[i%len(queries) : i%len(queries)+1]); err == nil && i%6 == 1 {
						s.Delete(ids)
					}
				case 2:
					s.Delete([]int32{int32(i % tn)})
				}
				i++
			}
		}(w)
	}
	for round := 0; round < 5; round++ {
		var buf bytes.Buffer
		if _, err := WriteSharded(&buf, MetricL2, s); err != nil {
			t.Fatalf("round %d: WriteSharded: %v", round, err)
		}
		loaded, meta, err := ReadSharded[vector.Dense](bytes.NewReader(buf.Bytes()), MetricL2)
		if err != nil {
			t.Fatalf("round %d: ReadSharded: %v", round, err)
		}
		if meta.N != loaded.N() {
			t.Fatalf("round %d: meta.N %d != loaded.N %d", round, meta.N, loaded.N())
		}
		loaded.Query(denseData(1, tdim, 99)[0])
	}
	close(stop)
	wg.Wait()
}

// ---- mode-demanding readers ----
//
// The package's readers let the snapshot decide the serving mode; these
// helpers are what a caller that demands one mode does with the result
// (Meta.RequireMode, then the concrete type), as a server whose mode
// flag is set does.

func readIndex[P any](r io.Reader, metric string) (*core.Index[P], Meta, error) {
	st, meta, err := Read[P](r, metric)
	if err == nil {
		err = meta.RequireMode(false, false)
	}
	if err != nil {
		return nil, Meta{}, err
	}
	return st.(*core.Index[P]), meta, nil
}

func readMultiProbe(r io.Reader, metric string) (*core.Index[vector.Dense], Meta, error) {
	st, meta, err := Read[vector.Dense](r, metric)
	if err == nil {
		err = meta.RequireMode(true, false)
	}
	if err != nil {
		return nil, Meta{}, err
	}
	return st.(*core.Index[vector.Dense]), meta, nil
}

func readCovering(r io.Reader) (*covering.Index, Meta, error) {
	st, meta, err := Read[vector.Binary](r, MetricHamming)
	if err == nil {
		err = meta.RequireMode(false, true)
	}
	if err != nil {
		return nil, Meta{}, err
	}
	return st.(*covering.Index), meta, nil
}

func readShardedCovering(r io.Reader) (*shard.Sharded[vector.Binary], Meta, error) {
	sh, meta, err := ReadSharded[vector.Binary](r, MetricHamming)
	if err == nil {
		err = meta.RequireMode(false, true)
	}
	if err != nil {
		return nil, Meta{}, err
	}
	return sh, meta, nil
}
