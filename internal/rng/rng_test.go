package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownStream(t *testing.T) {
	// Reference values for seed 0 from the public-domain C implementation by
	// Sebastiano Vigna (first three outputs of splitmix64 with x = 0).
	s := NewSplitMix64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("Next()[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical words", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64OpenNonZero(t *testing.T) {
	r := New(2)
	for i := 0; i < 100000; i++ {
		f := r.Float64Open()
		if f <= 0 || f >= 1 {
			t.Fatalf("Float64Open() = %v out of (0,1)", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(4).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ≈ %.0f", i, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %v, want ≈ 1", variance)
	}
}

func TestCauchyMedianAndSymmetry(t *testing.T) {
	r := New(7)
	const trials = 200000
	neg, within1 := 0, 0
	for i := 0; i < trials; i++ {
		x := r.Cauchy()
		if x < 0 {
			neg++
		}
		if math.Abs(x) <= 1 {
			within1++
		}
	}
	// Median 0: about half the samples negative.
	if frac := float64(neg) / trials; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("Cauchy P(x<0) = %v, want ≈ 0.5", frac)
	}
	// P(|X| ≤ 1) = 1/2 for standard Cauchy.
	if frac := float64(within1) / trials; math.Abs(frac-0.5) > 0.01 {
		t.Errorf("Cauchy P(|x|≤1) = %v, want ≈ 0.5", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid at value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(10)
	err := quick.Check(func(seed uint64) bool {
		rr := New(seed)
		n := 1 + rr.Intn(500)
		k := rr.Intn(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSamplePanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	New(11).Sample(2, 3)
}

func TestSampleUniformCoverage(t *testing.T) {
	// Every index should be sampled roughly equally often.
	r := New(12)
	const n, k, trials = 20, 5, 20000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	want := float64(trials*k) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d sampled %d times, want ≈ %.0f", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const trials = 200000
	var sum float64
	for i := 0; i < trials; i++ {
		x := r.Exp()
		if x < 0 {
			t.Fatalf("Exp() = %v < 0", x)
		}
		sum += x
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want ≈ 1", mean)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(14)
	s := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	r.Shuffle(s)
	for _, v := range s {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("Shuffle changed multiset: sum = %d", sum)
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal()
	}
	_ = sink
}
