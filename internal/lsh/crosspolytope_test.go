package lsh

import (
	"math"
	"testing"

	"repro/internal/distance"
	"repro/internal/rng"
	"repro/internal/vector"
)

func TestCrossPolytopeValidation(t *testing.T) {
	for _, dim := range []int{-1, 0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dim=%d accepted", dim)
				}
			}()
			NewCrossPolytope(dim, 1)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("k=0 hasher accepted")
		}
	}()
	NewCrossPolytope(4, 1).NewHasher(0, rng.New(1))
}

func TestCrossPolytopeCurveProperties(t *testing.T) {
	f := NewCrossPolytope(16, 7)
	probs := f.ProbsTable()
	if probs[0] != 1 {
		t.Fatalf("p(0) = %v, want 1", probs[0])
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[i-1] {
			t.Fatalf("curve not monotone at grid %d", i)
		}
		if probs[i] < 0 || probs[i] > 1 {
			t.Fatalf("probability %v out of range", probs[i])
		}
	}
	// Small angles must collide much more often than right angles.
	if f.CollisionProb(0.1) < f.CollisionProb(0.5)+0.1 {
		t.Fatalf("insufficient gap: p(0.1)=%v p(0.5)=%v", f.CollisionProb(0.1), f.CollisionProb(0.5))
	}
	// Interpolation endpoints.
	if f.CollisionProb(0) != 1 {
		t.Fatal("p(0) != 1")
	}
	if got := f.CollisionProb(2); got != probs[len(probs)-1] {
		t.Fatalf("p(>1) = %v, want tail value", got)
	}
}

func TestCrossPolytopeCurveDeterministic(t *testing.T) {
	a := NewCrossPolytope(8, 42).ProbsTable()
	b := NewCrossPolytope(8, 42).ProbsTable()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("calibration not deterministic under equal seeds")
		}
	}
}

func TestCrossPolytopeEmpiricalMatchesCurve(t *testing.T) {
	// Fresh pairs at a known angle must collide at ≈ the calibrated rate.
	const dim = 12
	f := NewCrossPolytope(dim, 9)
	r := rng.New(10)
	theta := math.Pi / 5 // normalized 0.2
	coll, trials := 0, 4000
	for s := 0; s < trials; s++ {
		u := randomUnit(dim, r)
		w := orthogonalUnit(u, r)
		v := make(vector.Dense, dim)
		for j := range v {
			v[j] = float32(math.Cos(theta)*float64(u[j]) + math.Sin(theta)*float64(w[j]))
		}
		h := f.NewHasher(1, r)
		if h.Key(u) == h.Key(v) {
			coll++
		}
	}
	got := float64(coll) / float64(trials)
	want := f.CollisionProb(0.2)
	if math.Abs(got-want) > 0.04 {
		t.Fatalf("empirical %v vs calibrated %v", got, want)
	}
}

func TestCrossPolytopeKeyScaleInvariant(t *testing.T) {
	f := NewCrossPolytope(8, 11)
	h := f.NewHasher(4, rng.New(12))
	x := vector.Dense{1, -2, 3, 0.5, 0, 1, -1, 2}
	y := x.Clone()
	for j := range y {
		y[j] *= 7
	}
	if h.Key(x) != h.Key(y) {
		t.Fatal("key not scale-invariant")
	}
}

func TestCrossPolytopeInHybridIndex(t *testing.T) {
	// End-to-end: cross-polytope family + tables + SolveK on an angular
	// workload with a planted cluster.
	r := rng.New(13)
	const dim, n = 24, 2500
	pts := make([]vector.Dense, n)
	center := randomUnit(dim, r)
	for i := 0; i < 400; i++ {
		// Points at small angles from the center.
		w := orthogonalUnit(center, r)
		theta := r.Float64() * 0.08 * math.Pi // ≤ 0.08 normalized
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = float32(math.Cos(theta)*float64(center[j]) + math.Sin(theta)*float64(w[j]))
		}
		pts[i] = p
	}
	for i := 400; i < n; i++ {
		pts[i] = randomUnit(dim, r)
	}
	fam := NewCrossPolytope(dim, 14)
	radius := 0.1 // normalized angle
	p1 := fam.CollisionProb(radius)
	if p1 <= 0 || p1 >= 1 {
		t.Fatalf("p1(%v) = %v degenerate", radius, p1)
	}
	k := SolveK(p1, 0.1, 30)
	tb, err := Build(pts, fam, Params{K: k, L: 30, HLLRegisters: 64, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Query at the center: most of the planted cluster must surface.
	bs := tb.Lookup(center)
	found := make(map[int32]bool)
	for _, b := range bs {
		for _, id := range b.AppendIDs(nil) {
			found[id] = true
		}
	}
	within := 0
	hits := 0
	for i := 0; i < 400; i++ {
		if distance.AngularDense(pts[i], center) <= radius {
			within++
			if found[int32(i)] {
				hits++
			}
		}
	}
	if within < 100 {
		t.Fatalf("planted cluster too small within radius: %d", within)
	}
	if frac := float64(hits) / float64(within); frac < 0.8 {
		t.Fatalf("cross-polytope recall %v < 0.8 (k=%d, p1=%v)", frac, k, p1)
	}
}
