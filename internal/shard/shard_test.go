package shard_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/vector"
)

// clustered returns n points in tight clusters (σ = spread) around nc
// random centers in [0,1)^dim, plus the centers themselves as queries.
// Tight clusters make every true neighbor sit far inside the radius, so
// a correctly built index reports the exact ground truth and the
// sharded/unsharded equivalence check can demand id-for-id equality.
func clustered(n, nc, dim int, spread float64, seed uint64) (points []vector.Dense, queries []vector.Dense) {
	r := rng.New(seed)
	centers := make([]vector.Dense, nc)
	for i := range centers {
		c := make(vector.Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	for i := 0; i < n; i++ {
		c := centers[i%nc]
		p := make(vector.Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*spread)
		}
		points = append(points, p)
	}
	return points, centers
}

func l2Builder(dim int, radius float64) shard.Builder[vector.Dense] {
	return func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL2(dim, 2*radius),
			Distance: distance.L2,
			Radius:   radius,
			K:        7,
			Seed:     seed,
		})
	}
}

func sorted(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

// TestQueryMatchesUnsharded is the sharding invariant: on the same point
// slice a sharded query must report the identical global id set as an
// unsharded index (both equal the exact ground truth on this easy
// clustered instance).
func TestQueryMatchesUnsharded(t *testing.T) {
	const (
		n, nc, dim = 1200, 40, 12
		radius     = 0.4
	)
	points, queries := clustered(n, nc, dim, 0.01, 11)
	build := l2Builder(dim, radius)

	flat, err := build(points, 99)
	if err != nil {
		t.Fatalf("unsharded build: %v", err)
	}
	sh, err := shard.New(points, 4, 99, build)
	if err != nil {
		t.Fatalf("sharded build: %v", err)
	}
	if got := sh.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if got := sh.N(); got != n {
		t.Fatalf("N() = %d, want %d", got, n)
	}

	for qi, q := range queries {
		truth := core.GroundTruth(points, distance.L2, q, radius)
		flatIDs, _ := flat.Query(q)
		shIDs, st := sh.Query(q)
		if !slices.Equal(sorted(flatIDs), sorted(truth)) {
			t.Fatalf("query %d: unsharded ids diverge from ground truth (got %d, want %d) — pick an easier instance", qi, len(flatIDs), len(truth))
		}
		if !slices.Equal(sorted(shIDs), sorted(flatIDs)) {
			t.Errorf("query %d: sharded ids = %v, unsharded = %v", qi, sorted(shIDs), sorted(flatIDs))
		}
		if st.Results != len(shIDs) {
			t.Errorf("query %d: stats.Results = %d, want %d", qi, st.Results, len(shIDs))
		}
		if st.LSHShards+st.LinearShards != sh.Shards() {
			t.Errorf("query %d: strategy mix %d+%d does not cover %d shards", qi, st.LSHShards, st.LinearShards, sh.Shards())
		}
		if len(st.PerShard) != sh.Shards() {
			t.Errorf("query %d: len(PerShard) = %d, want %d", qi, len(st.PerShard), sh.Shards())
		}
		if st.MaxShardTime > st.TotalShardTime {
			t.Errorf("query %d: MaxShardTime %v exceeds TotalShardTime %v", qi, st.MaxShardTime, st.TotalShardTime)
		}
	}
}

// TestQueryBatchMatchesQuery checks positional alignment of the batch
// path against one-at-a-time queries.
func TestQueryBatchMatchesQuery(t *testing.T) {
	points, queries := clustered(600, 20, 8, 0.01, 3)
	sh, err := shard.New(points, 3, 5, l2Builder(8, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	batch := sh.QueryBatch(queries, 4)
	if len(batch) != len(queries) {
		t.Fatalf("len(batch) = %d, want %d", len(batch), len(queries))
	}
	for i, q := range queries {
		ids, _ := sh.Query(q)
		if !slices.Equal(sorted(batch[i].IDs), sorted(ids)) {
			t.Errorf("batch[%d] = %v, Query = %v", i, sorted(batch[i].IDs), sorted(ids))
		}
	}
	if sh.QueryBatch(nil, 4) != nil {
		t.Error("QueryBatch(nil) should be nil")
	}
}

// TestAppendRoutesToSmallestShard checks id assignment and routing: ids
// are allocated sequentially from N, and each batch lands on a smallest
// shard so sizes stay balanced.
func TestAppendRoutesToSmallestShard(t *testing.T) {
	const dim = 8
	points, _ := clustered(10, 5, dim, 0.01, 17)
	sh, err := shard.New(points, 4, 1, l2Builder(dim, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	// 10 points over 4 shards round-robin: sizes 3,3,2,2.
	want := []int{3, 3, 2, 2}
	if got := sh.ShardSizes(); !slices.Equal(got, want) {
		t.Fatalf("ShardSizes() = %v, want %v", got, want)
	}

	next := int32(10)
	for round := 0; round < 6; round++ {
		batch, _ := clustered(3, 1, dim, 0.01, uint64(100+round))
		ids, err := sh.Append(batch)
		if err != nil {
			t.Fatalf("Append round %d: %v", round, err)
		}
		for i, id := range ids {
			if id != next+int32(i) {
				t.Fatalf("round %d: ids = %v, want to start at %d", round, ids, next)
			}
		}
		next += int32(len(batch))
		sizes := sh.ShardSizes()
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != int(next) {
			t.Fatalf("round %d: sizes %v sum to %d, want %d", round, sizes, total, next)
		}
		if mx, mn := slices.Max(sizes), slices.Min(sizes); mx-mn > 3 {
			t.Fatalf("round %d: sizes %v drifted apart", round, sizes)
		}
	}

	// Appended points are queryable under their returned ids.
	probe := make(vector.Dense, dim)
	for d := range probe {
		probe[d] = 5 // far from the [0,1) cube: only its own appends nearby
	}
	ids, err := sh.Append([]vector.Dense{probe.Clone(), probe.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sh.Query(probe)
	if !slices.Equal(sorted(got), sorted(ids)) {
		t.Fatalf("Query after Append = %v, want %v", sorted(got), sorted(ids))
	}

	if ids, err := sh.Append(nil); err != nil || ids != nil {
		t.Fatalf("Append(nil) = %v, %v; want nil, nil", ids, err)
	}
}

// TestDeleteTombstones checks that deleted ids vanish from reports
// immediately and that bookkeeping (N, Deleted, repeat deletes,
// out-of-range ids) holds.
func TestDeleteTombstones(t *testing.T) {
	points, queries := clustered(400, 10, 8, 0.01, 23)
	sh, err := shard.New(points, 4, 2, l2Builder(8, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := sh.Query(queries[0])
	if len(before) == 0 {
		t.Fatal("query reported nothing; test instance broken")
	}
	victims := sorted(before)[:2]
	if got := sh.Delete(victims); got != 2 {
		t.Fatalf("Delete = %d, want 2", got)
	}
	if got := sh.Delete(victims); got != 0 {
		t.Fatalf("repeat Delete = %d, want 0", got)
	}
	if got := sh.Delete([]int32{-1, 9999}); got != 0 {
		t.Fatalf("out-of-range Delete = %d, want 0", got)
	}
	if got := sh.N(); got != 398 {
		t.Fatalf("N() = %d, want 398", got)
	}
	if got := sh.Deleted(); got != 2 {
		t.Fatalf("Deleted() = %d, want 2", got)
	}
	after, _ := sh.Query(queries[0])
	for _, id := range after {
		if slices.Contains(victims, id) {
			t.Fatalf("deleted id %d still reported", id)
		}
	}
	if len(after) != len(before)-2 {
		t.Fatalf("len(after) = %d, want %d", len(after), len(before)-2)
	}
	st := sh.Stats()
	if st.Shards != 4 || st.Live != 398 || st.Tombstones != 2 {
		t.Fatalf("Stats() = %+v", st)
	}
}

// TestConcurrentMutationStress drives Query, QueryBatch, Append and
// Delete from many goroutines at once; run with -race it is the
// subsystem's concurrency proof.
func TestConcurrentMutationStress(t *testing.T) {
	const dim = 8
	points, queries := clustered(400, 10, dim, 0.01, 31)
	sh, err := shard.New(points, 4, 3, l2Builder(dim, 0.4))
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		rounds  = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(w+i)%len(queries)]
				ids, st := sh.Query(q)
				if st.Results != len(ids) {
					t.Errorf("reader %d: Results = %d, want %d", w, st.Results, len(ids))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// 130 queries on 2 workers: two blocks per range, each under its
		// own read lock, so appends and compactions land in between.
		batch := slices.Repeat(queries, 13)
		for i := 0; i < rounds; i++ {
			sh.QueryBatch(queries[:4], 2)
			for k, r := range sh.QueryBatch(batch, 2) {
				if r.Stats.Results != len(r.IDs) {
					t.Errorf("batch query %d: Results = %d, want %d", k, r.Stats.Results, len(r.IDs))
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			batch, _ := clustered(5, 1, dim, 0.01, uint64(1000+i))
			if _, err := sh.Append(batch); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			sh.Delete([]int32{int32(i * 7 % 400)})
			sh.N()
			sh.Stats()
		}
	}()
	wg.Wait()

	// Postcondition: every id ever assigned is accounted for.
	total := 0
	for _, s := range sh.ShardSizes() {
		total += s
	}
	if want := 400 + rounds*5; total != want {
		t.Fatalf("total points = %d, want %d", total, want)
	}
	if sh.N() != total-sh.Deleted() {
		t.Fatalf("N() = %d, want %d - %d", sh.N(), total, sh.Deleted())
	}
}

// TestNewValidation covers the constructor's error and clamping paths.
func TestNewValidation(t *testing.T) {
	points, _ := clustered(3, 1, 4, 0.01, 41)
	build := l2Builder(4, 0.4)
	if _, err := shard.New(points, 0, 1, build); err == nil {
		t.Error("New with 0 shards should fail")
	}
	if _, err := shard.New[vector.Dense](nil, 2, 1, build); err == nil {
		t.Error("New on empty points should fail")
	}
	if _, err := shard.New(points, 2, 1, nil); err == nil {
		t.Error("New with nil builder should fail")
	}
	sh, err := shard.New(points, 8, 1, build) // clamp 8 → 3
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Shards(); got != 3 {
		t.Errorf("Shards() = %d, want clamp to 3", got)
	}
}

// TestQueryBatchAllocations pins the cost of the shard-major batch pass:
// a /batch-sized request of 64 queries on 2 shards allocates a bounded
// number of times — result, stats and id slabs, one buffer and one
// goroutine per shard — not a fan-out per query (the per-query path
// this replaced took 671 here).
func TestQueryBatchAllocations(t *testing.T) {
	points, _ := clustered(2000, 40, 32, 0.05, 9)
	sh, err := shard.New(points, 2, 3, l2Builder(32, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	queries := points[:64]
	sh.QueryBatch(queries, 1) // fill the pools
	if n := testing.AllocsPerRun(10, func() { sh.QueryBatch(queries, 1) }); n >= 100 {
		t.Fatalf("a batch of 64 on 2 shards allocates %v times, want < 100", n)
	}
}

// BenchmarkKernelQueryBatch answers /batch-shaped requests of 64 queries
// on a dense128-batch-shaped index scaled down for CI: 10 000 points of
// a d = 128 Gaussian mixture on 2 shards, L = 50 tables of k = 7 at
// r = 0.3, flat L2 verification. "query" answers the 64 one Query (one
// fan-out) at a time, "batch" as one QueryBatch (one shard-major pass);
// ns/query is per query point.
func BenchmarkKernelQueryBatch(b *testing.B) {
	const n, dim, radius = 10000, 128, 0.3
	r := rng.New(128)
	centers := make([]float32, 64*dim)
	for i := range centers {
		centers[i] = float32(r.Float64())
	}
	points := make([]vector.Dense, n+64)
	for i := range points {
		c := centers[r.Intn(64)*dim:]
		p := make(vector.Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.03)
		}
		points[i] = p
	}
	queries := points[n:]
	sh, err := shard.New(points[:n], 2, 1, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL2(dim, 2*radius),
			Distance: distance.L2,
			Radius:   radius,
			K:        7,
			Cost:     core.CostModel{Alpha: 1, Beta: 10},
			Seed:     seed,
			Store:    pointstore.DenseL2Builder(pointstore.ModeOff),
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("query", func(b *testing.B) {
		for b.Loop() {
			for _, q := range queries {
				sh.Query(q)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
	})
	b.Run("batch", func(b *testing.B) {
		for b.Loop() {
			sh.QueryBatch(queries, 0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
	})
}
