package vector

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseDot(t *testing.T) {
	a := Dense{1, 2, 3}
	b := Dense{4, -5, 6}
	if got := a.Dot(b); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDenseDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot on mismatched dims did not panic")
		}
	}()
	Dense{1}.Dot(Dense{1, 2})
}

func TestDenseNorms(t *testing.T) {
	a := Dense{3, -4}
	if got := a.Norm2(); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	a := Dense{3, 4}
	a.Normalize()
	if !almostEqual(a.Norm2(), 1, 1e-6) {
		t.Fatalf("normalized norm = %v", a.Norm2())
	}
	z := Dense{0, 0}
	z.Normalize() // must not NaN
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector changed by Normalize")
	}
}

func TestL2AndL1(t *testing.T) {
	a := Dense{0, 0}
	b := Dense{3, 4}
	if got := L2(a, b); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if got := L1(a, b); got != 7 {
		t.Fatalf("L1 = %v, want 7", got)
	}
}

// Metric axioms for L1 and L2 on random vectors.
func TestMetricAxioms(t *testing.T) {
	r := rng.New(11)
	gen := func() Dense {
		v := make(Dense, 8)
		for i := range v {
			v[i] = float32(r.Normal())
		}
		return v
	}
	for _, m := range []struct {
		name string
		f    func(a, b Dense) float64
	}{{"L1", L1}, {"L2", L2}} {
		for trial := 0; trial < 200; trial++ {
			a, b, c := gen(), gen(), gen()
			if m.f(a, a) != 0 {
				t.Fatalf("%s: d(a,a) != 0", m.name)
			}
			if !almostEqual(m.f(a, b), m.f(b, a), 1e-9) {
				t.Fatalf("%s: not symmetric", m.name)
			}
			if m.f(a, c) > m.f(a, b)+m.f(b, c)+1e-9 {
				t.Fatalf("%s: triangle inequality violated", m.name)
			}
			if a[0] != b[0] && m.f(a, b) <= 0 {
				t.Fatalf("%s: d > 0 for distinct points violated", m.name)
			}
		}
	}
}

func TestNewSparseSortsAndMerges(t *testing.T) {
	s := NewSparse(10, []int32{5, 1, 5, 3}, []float32{1, 2, 3, 0})
	// index 3 had explicit zero -> dropped; index 5 merged 1+3=4.
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (%v %v)", s.NNZ(), s.Idx, s.Val)
	}
	if s.Idx[0] != 1 || s.Val[0] != 2 || s.Idx[1] != 5 || s.Val[1] != 4 {
		t.Fatalf("unexpected contents: %v %v", s.Idx, s.Val)
	}
}

func TestNewSparsePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	NewSparse(4, []int32{4}, []float32{1})
}

func TestSparseDotMatchesDense(t *testing.T) {
	r := rng.New(3)
	err := quick.Check(func(seed uint64) bool {
		rr := rng.New(seed)
		dim := 20 + rr.Intn(50)
		mk := func() Sparse {
			nnz := rr.Intn(dim)
			idx := make([]int32, nnz)
			val := make([]float32, nnz)
			for i := range idx {
				idx[i] = int32(rr.Intn(dim))
				val[i] = float32(rr.Normal())
			}
			return NewSparse(dim, idx, val)
		}
		a, b := mk(), mk()
		want := SparseToDense(a).Dot(SparseToDense(b))
		got := a.Dot(b)
		_ = r
		return almostEqual(got, want, 1e-6*(1+math.Abs(want)))
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotDense(t *testing.T) {
	s := NewSparse(5, []int32{0, 3}, []float32{2, -1})
	d := Dense{1, 9, 9, 4, 9}
	if got := s.DotDense(d); got != -2 {
		t.Fatalf("DotDense = %v, want -2", got)
	}
}

func TestCosineSim(t *testing.T) {
	a := NewSparse(4, []int32{0}, []float32{2})
	b := NewSparse(4, []int32{0}, []float32{7})
	if got := CosineSim(a, b); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("parallel cosine = %v, want 1", got)
	}
	c := NewSparse(4, []int32{1}, []float32{1})
	if got := CosineSim(a, c); got != 0 {
		t.Fatalf("orthogonal cosine = %v, want 0", got)
	}
	z := Sparse{Dim: 4}
	if got := CosineSim(a, z); got != 0 {
		t.Fatalf("zero-vector cosine = %v, want 0", got)
	}
}

func TestSparseNormalize(t *testing.T) {
	s := NewSparse(4, []int32{0, 1}, []float32{3, 4})
	s.Normalize()
	if !almostEqual(s.Norm2(), 1, 1e-6) {
		t.Fatalf("norm after normalize = %v", s.Norm2())
	}
}

func TestBinaryBits(t *testing.T) {
	b := NewBinary(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Bit(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		b.SetBit(i, true)
		if !b.Bit(i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
	}
	zero := NewBinary(130)
	if got := Hamming(b, zero); got != 8 {
		t.Fatalf("%d bits set, want 8", got)
	}
	b.SetBit(64, false)
	if b.Bit(64) || Hamming(b, zero) != 7 {
		t.Fatal("SetBit(false) failed")
	}
	b.FlipBit(64)
	if !b.Bit(64) {
		t.Fatal("FlipBit failed")
	}
}

func TestBinaryBoundsPanic(t *testing.T) {
	b := NewBinary(10)
	for _, f := range []func(){
		func() { b.Bit(10) },
		func() { b.SetBit(-1, true) },
		func() { b.FlipBit(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range bit access")
				}
			}()
			f()
		}()
	}
}

func TestHammingMatchesBitwise(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(200)
		a, b := NewBinary(dim), NewBinary(dim)
		want := 0
		for i := 0; i < dim; i++ {
			ab := r.Float64() < 0.5
			bb := r.Float64() < 0.5
			a.SetBit(i, ab)
			b.SetBit(i, bb)
			if ab != bb {
				want++
			}
		}
		return Hamming(a, b) == want
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHammingMetricAxioms(t *testing.T) {
	r := rng.New(77)
	gen := func(dim int) Binary {
		b := NewBinary(dim)
		for i := 0; i < dim; i++ {
			b.SetBit(i, r.Float64() < 0.5)
		}
		return b
	}
	for trial := 0; trial < 100; trial++ {
		a, b, c := gen(64), gen(64), gen(64)
		if Hamming(a, a) != 0 {
			t.Fatal("d(a,a) != 0")
		}
		if Hamming(a, b) != Hamming(b, a) {
			t.Fatal("not symmetric")
		}
		if Hamming(a, c) > Hamming(a, b)+Hamming(b, c) {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestBinaryClone(t *testing.T) {
	a := NewBinary(70)
	a.SetBit(69, true)
	b := a.Clone()
	b.SetBit(0, true)
	if a.Bit(0) {
		t.Fatal("Clone shares storage")
	}
	if !b.Bit(69) {
		t.Fatal("Clone lost a bit")
	}
}

func BenchmarkL2Dense32(b *testing.B) {
	r := rng.New(1)
	x, y := make(Dense, 32), make(Dense, 32)
	for i := range x {
		x[i], y[i] = float32(r.Normal()), float32(r.Normal())
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += L2(x, y)
	}
	_ = sink
}

func BenchmarkHamming64(b *testing.B) {
	x, y := NewBinary(64), NewBinary(64)
	x.SetBit(5, true)
	y.SetBit(60, true)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Hamming(x, y)
	}
	_ = sink
}
