package lsh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vector"
)

// The table machinery is family-agnostic; these tests run it over the
// remaining three families (SimHash, p-stable, MinHash) to catch any
// family-specific key pathologies that the bit-sampling tests would miss.

func TestTablesWithSimHash(t *testing.T) {
	r := rng.New(31)
	const dim, n = 40, 800
	pts := make([]vector.Sparse, n)
	for i := range pts {
		idx := make([]int32, 0, 8)
		val := make([]float32, 0, 8)
		for _, j := range r.Sample(dim, 8) {
			idx = append(idx, int32(j))
			val = append(val, float32(r.Normal()))
		}
		pts[i] = vector.NewSparse(dim, idx, val).Normalize()
	}
	tb, err := Build(pts, NewSimHashCosine(dim), Params{K: 8, L: 12, HLLRegisters: 64, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Indexed points find themselves in all tables; estimates are sane.
	for qi := 0; qi < 10; qi++ {
		bs := tb.Lookup(pts[qi*13])
		if len(bs) != 12 {
			t.Fatalf("point found in %d/12 buckets", len(bs))
		}
		est := tb.EstimateCandidates(views(bs), nil)
		truth := trueDistinct(bs)
		if truth > 0 && math.Abs(est-float64(truth))/float64(truth) > 0.4 {
			t.Fatalf("estimate %v vs truth %d", est, truth)
		}
	}
}

func TestTablesWithPStable(t *testing.T) {
	r := rng.New(33)
	const dim, n = 16, 600
	pts := make([]vector.Dense, n)
	for i := range pts {
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = float32(r.Normal())
		}
		pts[i] = p
	}
	tb, err := Build(pts, NewPStableL2(dim, 2), Params{K: 6, L: 10, HLLRegisters: 32, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		bs := tb.Lookup(pts[qi*7])
		if len(bs) != 10 {
			t.Fatalf("point found in %d/10 buckets", len(bs))
		}
	}
	if s := tb.Stats(); s.Points != n || s.Tables != 10 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestTablesWithMinHash(t *testing.T) {
	r := rng.New(35)
	const dim, n = 128, 500
	pts := make([]vector.Binary, n)
	for i := range pts {
		b := vector.NewBinary(dim)
		for _, j := range r.Sample(dim, 20) {
			b.SetBit(j, true)
		}
		pts[i] = b
	}
	tb, err := Build(pts, NewMinHash(dim), Params{K: 4, L: 8, HLLRegisters: 32, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 10; qi++ {
		bs := tb.Lookup(pts[qi*11])
		if len(bs) != 8 {
			t.Fatalf("point found in %d/8 buckets", len(bs))
		}
	}
}

// TestQuickNearDuplicatesShareBuckets: across random seeds, a point and a
// tiny perturbation of it must share most buckets (the qualitative LSH
// property every family needs).
func TestQuickNearDuplicatesShareBuckets(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		const dim = 64
		x := vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			x.SetBit(j, r.Float64() < 0.5)
		}
		y := x.Clone()
		y.FlipBit(r.Intn(dim)) // Hamming distance 1
		fam := NewBitSampling(dim)
		shared := 0
		const L = 30
		for j := 0; j < L; j++ {
			h := fam.NewHasher(8, r)
			if h.Key(x) == h.Key(y) {
				shared++
			}
		}
		// p1(1)^8 = (63/64)^8 ≈ 0.88; binomial(30, 0.88) below 15 is
		// astronomically unlikely.
		return shared >= 15
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFarPointsRarelyShareBuckets is the complementary property.
func TestQuickFarPointsRarelyShareBuckets(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		const dim = 64
		x, y := vector.NewBinary(dim), vector.NewBinary(dim)
		for j := 0; j < dim; j++ {
			b := r.Float64() < 0.5
			x.SetBit(j, b)
			y.SetBit(j, !b) // Hamming distance 64: maximally far
		}
		fam := NewBitSampling(dim)
		shared := 0
		for j := 0; j < 30; j++ {
			h := fam.NewHasher(8, r)
			if h.Key(x) == h.Key(y) {
				shared++
			}
		}
		return shared == 0 // p1 = 0 exactly for antipodal points
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
