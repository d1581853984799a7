package replica_test

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/multiprobe"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// The replay property: for ANY interleaving of appends, deletes and
// compactions on a live writer, a fresh replica built from a mid-stream
// snapshot plus the delta frames after it answers id-identically — for
// every store kind (classic, multi-probe, covering) and even when the
// replayed tail overlaps frames the snapshot already covers.

const (
	replayDim    = 8
	replayBits   = 64
	replayRadius = 0.4
)

func denseReplayData(n int, seed uint64) []vector.Dense {
	r := rng.New(seed)
	centers := make([]vector.Dense, 16)
	for i := range centers {
		c := make(vector.Dense, replayDim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	pts := make([]vector.Dense, n)
	for i := range pts {
		c := centers[i%len(centers)]
		p := make(vector.Dense, replayDim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.01)
		}
		pts[i] = p
	}
	return pts
}

// binaryReplayData is duplicate-heavy so covering buckets actually
// cluster (r-coverage of random uniform bits would report nothing).
func binaryReplayData(n int, seed uint64) []vector.Binary {
	r := rng.New(seed)
	base := make([]vector.Binary, (n+3)/4)
	for i := range base {
		b := vector.NewBinary(replayBits)
		for j := 0; j < replayBits; j++ {
			if r.Float64() < 0.4 {
				b.SetBit(j, true)
			}
		}
		base[i] = b
	}
	pts := make([]vector.Binary, n)
	for i := range pts {
		pts[i] = base[i%len(base)]
	}
	return pts
}

// runReplayProperty drives the writer through ~ops random mutations,
// snapshots it mid-stream, then replays the post-snapshot frames (plus
// a deliberate overlap of already-covered frames) onto a fresh replica
// and demands id-identical answers.
func runReplayProperty[P any](
	t *testing.T,
	seed uint64,
	writer *shard.Sharded[P],
	spare []P,
	queries []P,
	hdr persist.DeltaHeader,
) {
	t.Helper()
	log := replica.NewLog(hdr, 0)
	writer.SetJournal(replica.NewRecorder[P](log))

	r := rng.New(seed)
	var live []int32
	for id := int32(0); id < int32(writer.N()); id++ {
		live = append(live, id)
	}
	nextSpare := 0
	mutate := func(ops int) {
		for op := 0; op < ops; op++ {
			switch k := r.Float64(); {
			case k < 0.55: // append 1..6 points
				n := 1 + int(r.Float64()*5)
				batch := make([]P, n)
				for i := range batch {
					batch[i] = spare[nextSpare%len(spare)]
					nextSpare++
				}
				ids, err := writer.Append(batch)
				if err != nil {
					t.Fatalf("append: %v", err)
				}
				live = append(live, ids...)
			case k < 0.85 && len(live) > 4: // delete 1..4 live ids
				n := 1 + int(r.Float64()*3)
				ids := make([]int32, 0, n)
				for i := 0; i < n; i++ {
					j := int(r.Float64() * float64(len(live)))
					ids = append(ids, live[j])
					live = slices.Delete(live, j, j+1)
				}
				writer.Delete(ids)
			default: // compact a random shard
				j := int(r.Float64() * float64(writer.Shards()))
				if _, err := writer.Compact(j); err != nil {
					t.Fatalf("compact(%d): %v", j, err)
				}
			}
		}
	}

	mutate(60)

	// Mid-stream snapshot, sequence read first — exactly what
	// Source.ServeSnapshot stamps on the wire.
	snapSeq := log.Seq()
	var snap bytes.Buffer
	if _, err := persist.WriteSharded(&snap, hdr.Metric, writer); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	mutate(60)

	if err := log.Err(); err != nil {
		t.Fatalf("log latched: %v", err)
	}

	fresh, _, err := persist.ReadSharded[P](bytes.NewReader(snap.Bytes()), hdr.Metric)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	fresh.SetAutoCompact(1) // replay drives compaction, never the replica's own clock

	// Replay from before the snapshot cursor: the overlapping frames are
	// already covered by the snapshot and must be absorbed idempotently
	// (this is the snapshot/delta race every hydration performs).
	overlap := uint64(int(r.Float64() * 10))
	after := snapSeq - min(snapSeq, overlap)
	frames, last, err := log.Since(after, 0)
	if err != nil {
		t.Fatalf("Since(%d): %v", after, err)
	}
	if last != log.Seq() {
		t.Fatalf("Since returned through seq %d, want %d", last, log.Seq())
	}
	var stream bytes.Buffer
	if err := persist.WriteDeltaHeader(&stream, hdr); err != nil {
		t.Fatalf("WriteDeltaHeader: %v", err)
	}
	for _, f := range frames {
		stream.Write(f)
	}
	dr, err := persist.NewDeltaReader[P](&stream, hdr.Metric)
	if err != nil {
		t.Fatalf("NewDeltaReader: %v", err)
	}
	for {
		frame, err := dr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := replica.Apply(fresh, frame); err != nil {
			t.Fatalf("Apply(seq %d, kind %d): %v", frame.Seq, frame.Kind, err)
		}
	}

	if fresh.N() != writer.N() || fresh.Deleted() != writer.Deleted() {
		t.Fatalf("replica N=%d Deleted=%d, writer N=%d Deleted=%d",
			fresh.N(), fresh.Deleted(), writer.N(), writer.Deleted())
	}
	if got, want := fresh.ShardSizes(), writer.ShardSizes(); !slices.Equal(got, want) {
		t.Fatalf("replica shard sizes %v, writer %v", got, want)
	}
	answered := 0
	for qi, q := range queries {
		want, _ := writer.Query(q)
		got, _ := fresh.Query(q)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: replica %v, writer %v", qi, got, want)
		}
		answered += len(want)
	}
	if answered == 0 {
		t.Fatal("no query returned any neighbor; the property is vacuous")
	}
}

func TestReplayPropertyClassic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234} {
		data := denseReplayData(900, seed)
		writer, err := shard.New(data[:600], 3, seed, func(pts []vector.Dense, s uint64) (core.Store[vector.Dense], error) {
			return core.NewIndex(pts, core.Config[vector.Dense]{
				Family:   lsh.NewPStableL2(replayDim, 2*replayRadius),
				Distance: distance.L2,
				Radius:   replayRadius,
				K:        7,
				Seed:     s,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		runReplayProperty(t, seed, writer, data[600:], data[:24],
			persist.DeltaHeader{Epoch: seed, Metric: persist.MetricL2, Dim: replayDim})
	}
}

func TestReplayPropertyMultiProbe(t *testing.T) {
	for _, seed := range []uint64{2, 11} {
		data := denseReplayData(900, seed)
		writer, err := shard.New(data[:600], 3, seed, func(pts []vector.Dense, s uint64) (core.Store[vector.Dense], error) {
			return multiprobe.New(pts, multiprobe.Config{
				Family:   lsh.NewPStableL2(replayDim, 2*replayRadius),
				Distance: distance.L2,
				Radius:   replayRadius,
				K:        7,
				L:        4,
				Probes:   2,
				Seed:     s,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		runReplayProperty(t, seed, writer, data[600:], data[:24],
			persist.DeltaHeader{Epoch: seed, Metric: persist.MetricL2, Dim: replayDim})
	}
}

func TestReplayPropertyCovering(t *testing.T) {
	for _, seed := range []uint64{3, 13} {
		data := binaryReplayData(600, seed)
		writer, err := shard.New(data[:400], 2, seed, func(pts []vector.Binary, s uint64) (core.Store[vector.Binary], error) {
			return covering.New(pts, 3, covering.Config{HLLRegisters: 16, HLLThreshold: 3, Seed: s})
		})
		if err != nil {
			t.Fatal(err)
		}
		runReplayProperty(t, seed, writer, data[400:], data[:24],
			persist.DeltaHeader{Epoch: seed, Metric: persist.MetricHamming, Dim: replayBits})
	}
}
