package lsh

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vector"
)

func validInput() AdvisorInput {
	return AdvisorInput{
		N:           100000,
		P1:          0.9,
		PBackground: 0.5,
		Delta:       0.1,
	}
}

func TestAdviseValidation(t *testing.T) {
	mutations := []func(*AdvisorInput){
		func(in *AdvisorInput) { in.N = 0 },
		func(in *AdvisorInput) { in.P1 = 0 },
		func(in *AdvisorInput) { in.P1 = 1 },
		func(in *AdvisorInput) { in.PBackground = 0 },
		func(in *AdvisorInput) { in.PBackground = 0.95 }, // > P1
		func(in *AdvisorInput) { in.Delta = 2 },
		func(in *AdvisorInput) { in.MaxL = -1 },
		func(in *AdvisorInput) { in.Alpha = -1 },
	}
	for i, mut := range mutations {
		in := validInput()
		mut(&in)
		if _, _, err := Advise(in); err == nil {
			t.Errorf("case %d: invalid input accepted", i)
		}
	}
}

func TestAdviseMeetsDeltaBudget(t *testing.T) {
	best, ranked, err := Advise(validInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 200 {
		t.Fatalf("ranked has %d entries, want MaxL", len(ranked))
	}
	// The chosen configuration must respect the paper's ceiling-formula
	// regime: within one k of the strict bound.
	ks := SolveKStrict(0.9, 0.1, best.L)
	if best.K != ks && best.K != ks+1 {
		t.Fatalf("advised k=%d not consistent with formula (strict %d)", best.K, ks)
	}
	if best.MissProb > 0.25 {
		t.Fatalf("advised miss probability %v far above budget", best.MissProb)
	}
	// The best must not be beaten by any ranked entry.
	for _, a := range ranked {
		if a.QueryCost < best.QueryCost {
			t.Fatalf("ranked entry L=%d beats the advised one", a.L)
		}
	}
}

func TestAdvisePrefersSelectivityWhenBackgroundHeavy(t *testing.T) {
	// With a near/far gap, the advisor must pick k > 1: a single function
	// would flood every bucket with background collisions.
	best, _, err := Advise(AdvisorInput{
		N: 1000000, P1: 0.95, PBackground: 0.6, Delta: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.K < 5 {
		t.Fatalf("advised k=%d too small for a heavy background", best.K)
	}
	// Expected collisions must be far below a linear scan's n.
	if best.ExpectedCollisions > 1000000/10 {
		t.Fatalf("advised config expects %v collisions, worse than scanning", best.ExpectedCollisions)
	}
}

func TestAdviseCostMonotoneInBackground(t *testing.T) {
	// A harder background (higher p2) can only raise the best cost.
	in := validInput()
	easy, _, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	in.PBackground = 0.8
	hard, _, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if hard.QueryCost < easy.QueryCost {
		t.Fatalf("harder background got cheaper: %v < %v", hard.QueryCost, easy.QueryCost)
	}
}

func TestAdviseAgainstEmpiricalWorkload(t *testing.T) {
	// End-to-end sanity: the advised configuration, built for real,
	// must achieve mean recall ≥ 1−δ−ε on planted neighbors.
	r := rng.New(51)
	const dim, n = 64, 3000
	pts := randomBinaries(n, dim, 52)
	// Plant a 100-point cluster within distance 6 of pts[0].
	for i := 1; i <= 100; i++ {
		p := pts[0].Clone()
		for _, b := range r.Sample(dim, 1+r.Intn(6)) {
			p.FlipBit(b)
		}
		pts[i] = p
	}
	fam := NewBitSampling(dim)
	radius := 8.0

	// Background distances from random pairs.
	dists := make([]float64, 500)
	for i := range dists {
		a, b := pts[r.Intn(n)], pts[r.Intn(n)]
		dists[i] = float64(vector.Hamming(a, b))
	}
	p2, err := EstimateBackgroundProb[vector.Binary](fam, dists)
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := Advise(AdvisorInput{
		N: n, P1: fam.CollisionProb(radius), PBackground: p2,
		Delta: 0.1, MaxL: 80, ExpectedNeighbors: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Build(pts, fam, Params{K: best.K, L: best.L, HLLRegisters: 64, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	// Recall of the planted cluster from a query at its center.
	bs := tb.Lookup(pts[0])
	found := make(map[int32]bool)
	for _, b := range bs {
		for _, id := range b.AppendIDs(nil) {
			found[id] = true
		}
	}
	hits := 0
	for i := 1; i <= 100; i++ {
		if found[int32(i)] {
			hits++
		}
	}
	if hits < 85 {
		t.Fatalf("advised config found %d/100 planted neighbors, want ≥ 85 (δ = 0.1)", hits)
	}
}

func TestEstimateBackgroundProb(t *testing.T) {
	fam := NewBitSampling(64)
	p, err := EstimateBackgroundProb[vector.Binary](fam, []float64{32, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("p = %v, want 0.5", p)
	}
	if _, err := EstimateBackgroundProb[vector.Binary](fam, nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	// All-far sample clamps to a positive value.
	p, err = EstimateBackgroundProb[vector.Binary](fam, []float64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatalf("clamped probability %v not positive", p)
	}
}
