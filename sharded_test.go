package hybridlsh

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/vector"
)

// tightClusters generates points in very tight clusters so that, at the
// given radius, a correctly built index reports the exact ground truth —
// which lets the sharded/unsharded comparison demand id-for-id equality.
func tightClusters(n, nc, dim int, seed uint64) (points, queries []Dense) {
	r := rng.New(seed)
	centers := make([]Dense, nc)
	for i := range centers {
		c := make(Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	for i := 0; i < n; i++ {
		c := centers[i%nc]
		p := make(Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.01)
		}
		points = append(points, p)
	}
	return points, centers
}

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

func TestShardedL2MatchesUnsharded(t *testing.T) {
	const radius = 0.4
	points, queries := tightClusters(1000, 25, 10, 13)

	flat, err := New(L2, points, radius, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(L2, points, radius, WithSeed(4), WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Shards(); got != 5 {
		t.Fatalf("Shards() = %d, want 5", got)
	}
	for qi, q := range queries {
		truth := GroundTruth(L2, points, q, radius)
		flatIDs, _ := flat.Query(q)
		shIDs, st := sh.Query(q)
		if !slices.Equal(sortedIDs(flatIDs), sortedIDs(truth)) {
			t.Fatalf("query %d: unsharded index missed ground truth; pick an easier instance", qi)
		}
		if !slices.Equal(sortedIDs(shIDs), sortedIDs(flatIDs)) {
			t.Errorf("query %d: sharded = %v, unsharded = %v", qi, sortedIDs(shIDs), sortedIDs(flatIDs))
		}
		if st.LSHShards+st.LinearShards != 5 {
			t.Errorf("query %d: strategy mix %d+%d, want 5 shards", qi, st.LSHShards, st.LinearShards)
		}
	}
}

func TestShardedL2DefaultsAndValidation(t *testing.T) {
	points, _ := tightClusters(100, 5, 6, 19)
	sh, err := NewSharded(L2, points, 0.3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Shards(); got != 4 {
		t.Fatalf("default Shards() = %d, want 4", got)
	}
	if _, err := NewSharded(L2, nil, 0.3); err == nil {
		t.Error("empty points should fail")
	}
	if _, err := NewSharded(L2, points, 0); err == nil {
		t.Error("zero radius should fail")
	}
	// Sparse points have no exact cache key.
	sparse := pinSparse(20, 50, 5)
	if _, err := NewSharded(Cosine, sparse, 0.1, WithCache(8)); !errors.Is(err, ErrUnsupportedOption) {
		t.Errorf("WithCache on cosine: err = %v, want ErrUnsupportedOption", err)
	}
	if _, err := NewSharded(Cosine, sparse, 0.1); err != nil {
		t.Errorf("sharded cosine: %v", err)
	}
}

func TestShardedHammingMatchesUnsharded(t *testing.T) {
	// Binary instance with the same planted structure: 30 prototype
	// codes, each point flips ≤ 2 of 256 bits, radius 8 — every cluster
	// member is far inside the radius, cross-cluster points far outside.
	const (
		dim    = 256
		nc     = 30
		n      = 600
		radius = 8
	)
	r := rng.New(29)
	protos := make([]vector.Binary, nc)
	for i := range protos {
		b := NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	points := make([]Binary, n)
	for i := range points {
		b := protos[i%nc].Clone()
		for f := 0; f < 2; f++ {
			b.FlipBit(r.Intn(dim))
		}
		points[i] = b
	}

	flat, err := New(Hamming, points, radius, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(Hamming, points, radius, WithSeed(8), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharded(Hamming, nil, radius); err == nil {
		t.Error("empty points should fail")
	}
	for qi, q := range protos {
		truth := GroundTruth(Hamming, points, q, radius)
		flatIDs, _ := flat.Query(q)
		shIDs, _ := sh.Query(q)
		if !slices.Equal(sortedIDs(flatIDs), sortedIDs(truth)) {
			t.Fatalf("query %d: unsharded index missed ground truth; pick an easier instance", qi)
		}
		if !slices.Equal(sortedIDs(shIDs), sortedIDs(flatIDs)) {
			t.Errorf("query %d: sharded = %v, unsharded = %v", qi, sortedIDs(shIDs), sortedIDs(flatIDs))
		}
	}
}

func TestShardedAppendDeleteRoundTrip(t *testing.T) {
	points, _ := tightClusters(200, 10, 6, 37)
	sh, err := NewSharded(L2, points, 0.3, WithSeed(2), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	// Plant a far-away probe; only its own appends should be near it.
	probe := make(Dense, 6)
	for d := range probe {
		probe[d] = 9
	}
	ids, err := sh.Append([]Dense{probe.Clone(), probe.Clone(), probe.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sh.Query(probe)
	if !slices.Equal(sortedIDs(got), sortedIDs(ids)) {
		t.Fatalf("Query after Append = %v, want %v", sortedIDs(got), sortedIDs(ids))
	}
	if n := sh.Delete(ids[:1]); n != 1 {
		t.Fatalf("Delete = %d, want 1", n)
	}
	got, _ = sh.Query(probe)
	if !slices.Equal(sortedIDs(got), sortedIDs(ids[1:])) {
		t.Fatalf("Query after Delete = %v, want %v", sortedIDs(got), sortedIDs(ids[1:]))
	}
	st := sh.Stats()
	if st.Live != 202 || st.Tombstones != 1 {
		t.Fatalf("Stats() = %+v, want Live 202, Tombstones 1", st)
	}
}

// TestShardedHammingCompactEquivalence is the root-level Hamming leg of
// the compaction equivalence property: delete, compact via the promoted
// methods, and require answers id-for-id minus the deleted ids.
func TestShardedHammingCompactEquivalence(t *testing.T) {
	const (
		dim    = 256
		nc     = 30
		n      = 600
		radius = 8
	)
	r := rng.New(53)
	protos := make([]vector.Binary, nc)
	for i := range protos {
		b := NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	points := make([]Binary, n)
	for i := range points {
		b := protos[i%nc].Clone()
		for f := 0; f < 2; f++ {
			b.FlipBit(r.Intn(dim))
		}
		points[i] = b
	}
	sh, err := NewSharded(Hamming, points, radius, WithSeed(8), WithShards(4),
		WithCompactionThreshold(1)) // compact explicitly below
	if err != nil {
		t.Fatal(err)
	}

	var del []int32
	for id := int32(0); id < n; id += 3 {
		del = append(del, id)
	}
	sh.Delete(del)
	dead := make(map[int32]bool, len(del))
	for _, id := range del {
		dead[id] = true
	}

	pre := make([][]int32, len(protos))
	for i, q := range protos {
		ids, _ := sh.Query(q)
		pre[i] = sortedIDs(ids)
	}
	removed, err := sh.CompactAll()
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(del) {
		t.Fatalf("CompactAll removed %d, want %d", removed, len(del))
	}
	for i, q := range protos {
		ids, _ := sh.Query(q)
		if !slices.Equal(sortedIDs(ids), pre[i]) {
			t.Fatalf("query %d: answers changed across compaction: %v != %v", i, sortedIDs(ids), pre[i])
		}
		for _, id := range ids {
			if dead[id] {
				t.Fatalf("query %d reported compacted id %d", i, id)
			}
		}
	}
	if st := sh.Stats(); st.DeadTotal != 0 || st.Tombstones != len(del) {
		t.Fatalf("Stats after CompactAll = %+v, want dead 0, tombstones %d", st, len(del))
	}
}

// TestShardedL2AutoCompaction exercises WithCompactionThreshold end to
// end on the dense index: deleting one shard's worth of points past the
// threshold compacts it without any explicit call.
func TestShardedL2AutoCompaction(t *testing.T) {
	points, queries := tightClusters(800, 20, 8, 41)
	sh, err := NewSharded(L2, points, 0.3, WithSeed(3), WithShards(4),
		WithCompactionThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var del []int32
	for id := int32(0); id < 160; id += 4 {
		del = append(del, id) // 40 of shard 0's 200 points = 20% > 10%
	}
	sh.Delete(del)
	st := sh.Stats()
	if st.CompactionsTotal == 0 {
		t.Fatalf("no auto-compaction after deleting past the threshold: %+v", st)
	}
	if st.DeadInBuckets[0] != 0 {
		t.Fatalf("shard 0 keeps %d dead points after auto-compaction", st.DeadInBuckets[0])
	}
	for qi, q := range queries {
		ids, _ := sh.Query(q)
		for _, id := range ids {
			if id < 160 && id%4 == 0 {
				t.Fatalf("query %d reported deleted id %d", qi, id)
			}
		}
	}
}

func TestWithCompactionThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("applying WithCompactionThreshold(0) did not panic")
		}
	}()
	applyOptions([]Option{WithCompactionThreshold(0)})
}
