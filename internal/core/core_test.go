package core

import (
	"sync"
	"testing"

	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// testWorkload builds the Figure-1 situation in miniature: a big dense
// cluster (queries there are "hard": output ≈ cluster size) plus uniform
// random points (queries there are "easy").
type testWorkload struct {
	points      []vector.Binary
	clusterSize int
	center      vector.Binary
}

func makeWorkload(n, clusterSize, dim, maxFlips int, seed uint64) testWorkload {
	r := rng.New(seed)
	center := vector.NewBinary(dim)
	for j := 0; j < dim; j++ {
		center.SetBit(j, r.Float64() < 0.5)
	}
	pts := make([]vector.Binary, n)
	for i := 0; i < clusterSize; i++ {
		p := center.Clone()
		for _, b := range r.Sample(dim, r.Intn(maxFlips+1)) {
			p.FlipBit(b)
		}
		pts[i] = p
	}
	for i := clusterSize; i < n; i++ {
		p := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			p.SetBit(j, r.Float64() < 0.5)
		}
		pts[i] = p
	}
	return testWorkload{points: pts, clusterSize: clusterSize, center: center}
}

func buildIndex(t *testing.T, w testWorkload, radius float64) *Index[vector.Binary] {
	t.Helper()
	ix, err := NewIndex(w.points, Config[vector.Binary]{
		Family:   lsh.NewBitSampling(w.points[0].Dim),
		Distance: distance.Hamming,
		Radius:   radius,
		Delta:    0.1,
		L:        50,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewIndexValidation(t *testing.T) {
	w := makeWorkload(100, 10, 64, 2, 1)
	fam := lsh.NewBitSampling(64)
	cases := []Config[vector.Binary]{
		{Distance: distance.Hamming, Radius: 5},                          // nil family
		{Family: fam, Radius: 5},                                         // nil distance
		{Family: fam, Distance: distance.Hamming},                        // radius 0
		{Family: fam, Distance: distance.Hamming, Radius: -1},            // radius < 0
		{Family: fam, Distance: distance.Hamming, Radius: 5, Delta: 1.5}, // bad delta
		{Family: fam, Distance: distance.Hamming, Radius: 5, L: -1},      // bad L
		{Family: fam, Distance: distance.Hamming, Radius: 64},            // p1 = 0
		{Family: fam, Distance: distance.Hamming, Radius: 5, K: -2},      // bad K
		{Family: fam, Distance: distance.Hamming, Radius: 5, Cost: CostModel{Alpha: -1, Beta: 1}},
	}
	for i, cfg := range cases {
		if _, err := NewIndex(w.points, cfg); err == nil {
			t.Errorf("case %d: NewIndex accepted invalid config", i)
		}
	}
}

func TestNewIndexDefaults(t *testing.T) {
	w := makeWorkload(200, 20, 64, 2, 2)
	ix := buildIndex(t, w, 8)
	if ix.L() != 50 {
		t.Fatalf("L = %d, want default 50", ix.L())
	}
	if ix.K() != lsh.SolveK(ix.P1(), 0.1, 50) {
		t.Fatalf("K = %d does not match the paper's formula", ix.K())
	}
	if ix.Cost() != DefaultCostModel {
		t.Fatalf("Cost = %+v, want default", ix.Cost())
	}
	if ix.N() != 200 || ix.Radius() != 8 {
		t.Fatalf("N/Radius wrong: %d %v", ix.N(), ix.Radius())
	}
}

func TestQueryLinearIsExact(t *testing.T) {
	w := makeWorkload(500, 100, 64, 2, 3)
	ix := buildIndex(t, w, 10)
	for qi := 0; qi < 20; qi++ {
		q := w.points[qi*17]
		got, stats := ix.QueryLinear(q)
		want := GroundTruth(w.points, distance.Hamming, q, 10)
		if Recall(got, want) != 1 || len(got) != len(want) {
			t.Fatalf("linear scan not exact: got %d, want %d", len(got), len(want))
		}
		if stats.Strategy != StrategyLinear || stats.Candidates != 500 {
			t.Fatalf("linear stats wrong: %+v", stats)
		}
	}
}

func TestQueryLSHRecallMeetsDelta(t *testing.T) {
	w := makeWorkload(2000, 400, 64, 4, 4)
	ix := buildIndex(t, w, 10)
	var recallSum float64
	nq := 50
	for qi := 0; qi < nq; qi++ {
		q := w.points[qi] // cluster points: non-trivial ground truth
		got, _ := ix.QueryLSH(q)
		truth := GroundTruth(w.points, distance.Hamming, q, 10)
		if len(truth) == 0 {
			t.Fatalf("query %d has empty ground truth; workload broken", qi)
		}
		recallSum += Recall(got, truth)
	}
	if mean := recallSum / float64(nq); mean < 0.85 {
		t.Fatalf("mean LSH recall = %v, want >= 0.85 (δ = 0.1)", mean)
	}
}

func TestHybridRecallAtLeastLSH(t *testing.T) {
	w := makeWorkload(2000, 1200, 64, 2, 5)
	ix := buildIndex(t, w, 10)
	var hybridSum, lshSum float64
	nq := 30
	for qi := 0; qi < nq; qi++ {
		q := w.points[qi]
		truth := GroundTruth(w.points, distance.Hamming, q, 10)
		h, _ := ix.Query(q)
		l, _ := ix.QueryLSH(q)
		hybridSum += Recall(h, truth)
		lshSum += Recall(l, truth)
	}
	if hybridSum < lshSum-1e-9 {
		t.Fatalf("hybrid mean recall %v below LSH %v", hybridSum/float64(nq), lshSum/float64(nq))
	}
}

func TestHybridChoosesLinearOnHardQuery(t *testing.T) {
	// 60% of the points sit in one tight cluster: a query at the center
	// collides with most of them in every table, so Equation (1) must
	// exceed Equation (2) and Algorithm 2 must fall back to linear search.
	w := makeWorkload(2000, 1200, 64, 2, 6)
	ix := buildIndex(t, w, 10)
	strategy, stats := ix.DecideStrategy(w.center)
	if strategy != StrategyLinear {
		t.Fatalf("hard query chose %v (LSHCost %v, LinearCost %v, collisions %d, est %v)",
			strategy, stats.LSHCost, stats.LinearCost, stats.Collisions, stats.EstCandidates)
	}
	// The estimate must be in the right ballpark of the true candidate
	// count for the decision to be trustworthy.
	truth := len(GroundTruth(w.points, distance.Hamming, w.center, 10))
	if stats.EstCandidates < float64(truth)/2 {
		t.Fatalf("estimate %v implausibly low vs true output %d", stats.EstCandidates, truth)
	}
}

func TestHybridChoosesLSHOnEasyQuery(t *testing.T) {
	w := makeWorkload(2000, 1200, 64, 2, 7)
	// An easy query: a fresh random point far from the cluster.
	r := rng.New(99)
	q := vector.NewBinary(64)
	for j := 0; j < 64; j++ {
		q.SetBit(j, r.Float64() < 0.5)
	}
	if vector.Hamming(q, w.center) < 20 {
		t.Skip("random query accidentally near cluster")
	}
	ix := buildIndex(t, w, 10)
	strategy, stats := ix.DecideStrategy(q)
	if strategy != StrategyLSH {
		t.Fatalf("easy query chose %v (collisions %d, est %v)", strategy, stats.Collisions, stats.EstCandidates)
	}
}

func TestQueryMatchesDecideStrategy(t *testing.T) {
	w := makeWorkload(1500, 800, 64, 2, 8)
	ix := buildIndex(t, w, 10)
	for qi := 0; qi < 20; qi++ {
		q := w.points[qi*31]
		want, _ := ix.DecideStrategy(q)
		_, stats := ix.Query(q)
		if stats.Strategy != want {
			t.Fatalf("query %d: Query used %v but DecideStrategy said %v", qi, stats.Strategy, want)
		}
	}
}

func TestQueryStatsInvariants(t *testing.T) {
	w := makeWorkload(1000, 200, 64, 3, 9)
	ix := buildIndex(t, w, 10)
	for qi := 0; qi < 30; qi++ {
		q := w.points[qi]
		out, stats := ix.Query(q)
		if stats.Results != len(out) {
			t.Fatalf("Results %d != len(out) %d", stats.Results, len(out))
		}
		if stats.Strategy == StrategyLSH {
			if stats.Candidates > stats.Collisions {
				t.Fatalf("candidates %d exceed collisions %d", stats.Candidates, stats.Collisions)
			}
			if stats.Results > stats.Candidates {
				t.Fatalf("results %d exceed candidates %d", stats.Results, stats.Candidates)
			}
		}
		if stats.LSHCost <= 0 || stats.LinearCost <= 0 {
			t.Fatalf("costs not positive: %+v", stats)
		}
		if stats.TotalTime() < stats.SearchTime {
			t.Fatal("TotalTime < SearchTime")
		}
		// Results must be distinct.
		seen := make(map[int32]bool, len(out))
		for _, id := range out {
			if seen[id] {
				t.Fatal("duplicate id in results")
			}
			seen[id] = true
		}
	}
}

func TestQueryReportsOnlyPointsWithinRadius(t *testing.T) {
	w := makeWorkload(800, 300, 64, 3, 10)
	ix := buildIndex(t, w, 9)
	for qi := 0; qi < 20; qi++ {
		q := w.points[qi]
		out, _ := ix.Query(q)
		for _, id := range out {
			if d := distance.Hamming(w.points[id], q); d > 9 {
				t.Fatalf("reported point %d at distance %v > r", id, d)
			}
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	w := makeWorkload(1000, 500, 64, 2, 11)
	ix := buildIndex(t, w, 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := w.points[(g*50+i)%len(w.points)]
				out, stats := ix.Query(q)
				if stats.Results != len(out) {
					panic("stats mismatch under concurrency")
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestGenerationWrapClearsVisited(t *testing.T) {
	// White-box: force the generation counter to the wrap point and check
	// a query still deduplicates correctly.
	w := makeWorkload(300, 100, 64, 2, 12)
	ix := buildIndex(t, w, 10)
	st := ix.states.Get().(*queryState)
	st.gen = ^uint32(0) // next searchBuckets call wraps to 0 then resets
	for i := range st.visited {
		st.visited[i] = 12345 // stale stamps that must not survive the wrap
	}
	ix.states.Put(st)

	q := w.points[0]
	out, _ := ix.Query(q)
	truth := GroundTruth(w.points, distance.Hamming, q, 10)
	if Recall(out, truth) < 0.5 {
		t.Fatalf("query after generation wrap lost results: %d reported, %d true", len(out), len(truth))
	}
}

func TestRecall(t *testing.T) {
	cases := []struct {
		rep, truth []int32
		want       float64
	}{
		{nil, nil, 1},
		{[]int32{1, 2}, nil, 1},
		{nil, []int32{1}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 1},
		{[]int32{1, 3}, []int32{1, 2, 3, 4}, 0.5},
		{[]int32{5, 6}, []int32{1, 2}, 0},
	}
	for i, c := range cases {
		if got := Recall(c.rep, c.truth); got != c.want {
			t.Errorf("case %d: Recall = %v, want %v", i, got, c.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyLSH.String() != "lsh" || StrategyLinear.String() != "linear" || Strategy(9).String() != "unknown" {
		t.Fatal("Strategy.String broken")
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{Alpha: 2, Beta: 5}
	if got := c.LSHCost(10, 4); got != 40 {
		t.Fatalf("LSHCost = %v, want 40", got)
	}
	if got := c.LinearCost(100); got != 500 {
		t.Fatalf("LinearCost = %v, want 500", got)
	}
	if got := c.BetaOverAlpha(); got != 2.5 {
		t.Fatalf("BetaOverAlpha = %v, want 2.5", got)
	}
	if (CostModel{}).Valid() {
		t.Fatal("zero cost model reported valid")
	}
	if (CostModel{}).BetaOverAlpha() != 0 {
		t.Fatal("zero cost model ratio not 0")
	}
}

func TestCalibrateProducesSaneModel(t *testing.T) {
	w := makeWorkload(2000, 200, 64, 2, 13)
	cm := Calibrate(w.points, pointstore.GenericBuilder(distance.Hamming), 20, 1000, 1)
	if !cm.Valid() {
		t.Fatalf("Calibrate returned invalid model %+v", cm)
	}
	// What α is a measurement of, asserted on the loop's own step count
	// (a timing cannot tell): every id of 50 buckets holding the sample,
	// 20 times over. The ratio itself is a wall-clock reading, printed.
	if _, steps := timeDedup(len(w.points), 1000, rng.New(1)); steps != 20*50*(1000/50+1) {
		t.Fatalf("the α loop timed %d dedup steps, want %d", steps, 20*50*(1000/50+1))
	}
	t.Logf("β/α = %.3g on Hamming-64", cm.BetaOverAlpha())
}

func TestExplicitKOverridesSolver(t *testing.T) {
	w := makeWorkload(300, 50, 64, 2, 14)
	ix, err := NewIndex(w.points, Config[vector.Binary]{
		Family:   lsh.NewBitSampling(64),
		Distance: distance.Hamming,
		Radius:   8,
		K:        5,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 5 {
		t.Fatalf("K = %d, want explicit 5", ix.K())
	}
}

// TestDeltaBudgetHonored validates the paper's parameter rule end-to-end:
// for several δ budgets, the solved k yields mean recall ≥ 1 − δ − ε on a
// planted-cluster workload, and looser budgets buy more selectivity: a
// larger δ permits a larger k (fewer collisions at the price of more
// misses), so k must be non-decreasing in δ.
func TestDeltaBudgetHonored(t *testing.T) {
	w := makeWorkload(2000, 300, 64, 4, 31)
	prevK := 0
	for _, delta := range []float64{0.05, 0.1, 0.25} {
		ix, err := NewIndex(w.points, Config[vector.Binary]{
			Family:   lsh.NewBitSampling(64),
			Distance: distance.Hamming,
			Radius:   10,
			Delta:    delta,
			L:        50,
			Seed:     32,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ix.K() < prevK {
			t.Fatalf("δ=%v: k=%d shrank although budget loosened", delta, ix.K())
		}
		prevK = ix.K()
		var recallSum float64
		nq := 40
		for qi := 0; qi < nq; qi++ {
			q := w.points[qi]
			out, _ := ix.QueryLSH(q)
			truth := GroundTruth(w.points, distance.Hamming, q, 10)
			recallSum += Recall(out, truth)
		}
		mean := recallSum / float64(nq)
		// The per-point bound is 1−δ in expectation; allow sampling noise
		// plus the ceil-formula overshoot (≤ ~2δ worst case).
		if mean < 1-2*delta-0.03 {
			t.Errorf("δ=%v: mean recall %v below budget", delta, mean)
		}
	}
}
