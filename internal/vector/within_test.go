package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The within-radius kernels are tested differentially: the dispatching
// entry points (assembly where the CPU has AVX2) against the portable
// loop, on the exact id list and — since the kernels only ever reveal a
// comparison — on the distance's bits by probing the threshold: if a row
// at portable distance d passes r² = d and fails r² = the float64 just
// below d, the kernel's own distance lies in (pred(d), d], which holds
// exactly one float64. On a CPU without AVX2 both sides are the same
// code and the tests pin the portable semantics alone.

// awkward are the coordinates the arithmetic could treat differently in
// the two kernels: signed zeros, denormals, the float32 extremes,
// infinities (Inf−Inf is NaN) and NaN.
var awkward = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// withinCase is one kernel input. q and flat are carved out of larger
// backings at odd float offsets, so neither starts 16- or 32-byte aligned.
type withinCase struct {
	q    Dense
	flat []float32
	n    int
}

func randWithinCase(r *rng.Rand, dim, n int, special bool) withinCase {
	qOff, fOff := 1+r.Intn(3), 1+r.Intn(3)
	q := make(Dense, qOff+dim)[qOff:]
	flat := make([]float32, fOff+n*dim)[fOff:]
	for i := range q {
		q[i] = float32(r.Normal())
	}
	for i := range flat {
		flat[i] = float32(r.Normal())
	}
	if n > 0 {
		copy(flat[:dim], q) // row 0 is q itself: distance exactly 0
	}
	if special {
		for k := 0; k < 1+len(flat)/8; k++ {
			if len(flat) > 0 {
				flat[r.Intn(len(flat))] = awkward[r.Intn(len(awkward))]
			}
		}
		if dim > 0 && r.Intn(2) == 0 {
			q[r.Intn(dim)] = awkward[r.Intn(len(awkward))]
		}
	}
	return withinCase{q: q, flat: flat, n: n}
}

func (c withinCase) row(i int) []float32 { return c.flat[i*len(c.q) : (i+1)*len(c.q)] }

// checkAgainstPortable compares both dispatching kernels with the
// portable ones at radius r2 over ids, and through a non-empty prefix.
func checkAgainstPortable(t *testing.T, c withinCase, ids []int32, r2 float64) {
	t.Helper()
	prefix := []int32{-7, 42}
	want := l2SqWithinPortable(slices.Clone(prefix), c.q, c.flat, c.n, ids, r2)
	got := L2SqWithin(slices.Clone(prefix), c.q, c.flat, c.n, ids, r2)
	if !slices.Equal(got, want) {
		t.Fatalf("dim %d n %d r2 %v: L2SqWithin = %v, portable %v", len(c.q), c.n, r2, got, want)
	}
	want = l2SqWithinPortable(slices.Clone(prefix), c.q, c.flat, c.n, allIDs(c.n), r2)
	got = L2SqWithinAll(slices.Clone(prefix), c.q, c.flat, c.n, r2)
	if !slices.Equal(got, want) {
		t.Fatalf("dim %d n %d r2 %v: L2SqWithinAll = %v, portable %v", len(c.q), c.n, r2, got, want)
	}
}

func allIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// checkDistanceBits proves the dispatching kernels compute, for every
// row, the very float64 l2SqRaw does (see the comment at the top).
func checkDistanceBits(t *testing.T, c withinCase) {
	t.Helper()
	for i := 0; i < c.n; i++ {
		id := []int32{int32(i)}
		one := withinCase{q: c.q, flat: c.row(i), n: 1}
		within := func(r2 float64) bool {
			a := len(L2SqWithin(nil, c.q, c.flat, c.n, id, r2)) == 1
			if b := len(L2SqWithinAll(nil, one.q, one.flat, 1, r2)) == 1; a != b {
				t.Fatalf("dim %d row %d r2 %v: ids kernel says %v, rows kernel %v", len(c.q), i, r2, a, b)
			}
			return a
		}
		d := l2SqRaw(c.q, c.row(i))
		if math.IsNaN(d) {
			if within(math.Inf(1)) || within(math.NaN()) {
				t.Fatalf("dim %d row %d: a NaN distance was accepted", len(c.q), i)
			}
			continue
		}
		if !within(d) {
			t.Fatalf("dim %d row %d: distance %v (bits %#x) rejected at r2 = itself", len(c.q), i, d, math.Float64bits(d))
		}
		if below := math.Nextafter(d, math.Inf(-1)); within(below) {
			t.Fatalf("dim %d row %d: distance %v (bits %#x) accepted one ulp below", len(c.q), i, d, math.Float64bits(d))
		}
		if within(math.NaN()) {
			t.Fatalf("dim %d row %d: accepted at r2 = NaN", len(c.q), i)
		}
	}
}

func TestL2SqWithinMatchesPortable(t *testing.T) {
	r := rng.New(18)
	for dim := 0; dim <= 130; dim++ { // every dim mod 4, and 0
		for _, special := range []bool{false, true} {
			n := 1 + r.Intn(9)
			c := randWithinCase(r, dim, n, special)
			checkDistanceBits(t, c)
			ids := make([]int32, 3*n) // repeats, any order
			for i := range ids {
				ids[i] = int32(r.Intn(n))
			}
			median := l2SqRaw(c.q, c.row(n/2))
			for _, r2 := range []float64{0, median, math.Inf(1), -1, math.NaN(), math.Copysign(0, -1)} {
				checkAgainstPortable(t, c, ids, r2)
				checkAgainstPortable(t, c, nil, r2)
			}
		}
	}
}

// TestL2SqWithinScreenBandEdges drives both screens where they must hand
// over to the float64 reference: radii equal to a row's reference
// distance and its float64 neighbours, rows duplicated with 1-ulp
// perturbations, value scales from subnormal to 1e30, NaN and Inf rows,
// r² ∈ {0, tiny, huge, NaN, Inf}, every n mod 4 and every d mod 8. On a
// CPU with the screen, some row must have landed in the band.
func TestL2SqWithinScreenBandEdges(t *testing.T) {
	r := rng.New(38)
	banded := 0
	for dim := 1; dim <= 40; dim++ {
		for _, scale := range []float64{1e-42, 1e-6, 1, 1e3, 1e30} {
			n := 1 + r.Intn(12)
			c := randWithinCase(r, dim, n, scale == 1)
			for i := range c.flat {
				c.flat[i] = float32(float64(c.flat[i]) * scale)
			}
			for i := range c.q {
				c.q[i] = float32(float64(c.q[i]) * scale)
			}
			for i := 1; i < n; i += 2 { // row i is row i-1 with one coordinate 1 ulp off
				copy(c.row(i), c.row(i-1))
				j := r.Intn(dim)
				c.row(i)[j] = math.Nextafter32(c.row(i)[j], float32(math.Inf(1)))
			}
			if n > 2 && r.Intn(3) == 0 {
				c.row(n - 1)[r.Intn(dim)] = awkward[7+r.Intn(3)] // ±Inf or NaN
			}
			ids := make([]int32, 2*n)
			for i := range ids {
				ids[i] = int32(r.Intn(n))
			}
			r2s := []float64{0, 5e-324, 1e300, math.NaN(), math.Inf(1)}
			for i := 0; i < n; i++ {
				d := l2SqRaw(c.q, c.row(i))
				r2s = append(r2s, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
			}
			for _, r2 := range r2s {
				checkAgainstPortable(t, c, ids, r2)
				checkAgainstPortable(t, c, nil, r2)
				banded += int(WithinBandShare(c.q, c.flat, c.n, ids, r2) * float64(len(ids)))
				banded += int(WithinBandShare(c.q, c.flat, c.n, allIDs(c.n), r2) * float64(c.n))
			}
		}
	}
	if haveFMA && banded == 0 {
		t.Fatal("no row ever landed in the screen's band: the edges were not exercised")
	}
}

// TestL2SqWithinChunks crosses the assembly call boundary: more ids and
// rows than one chunk, with hits on both sides of it.
func TestL2SqWithinChunks(t *testing.T) {
	r := rng.New(19)
	for _, n := range []int{255, 256, 257, 1000} {
		c := randWithinCase(r, 5, n, false)
		ids := make([]int32, 2*n+3)
		for i := range ids {
			ids[i] = int32(r.Intn(n))
		}
		ds := make([]float64, n)
		for i := range ds {
			ds[i] = l2SqRaw(c.q, c.row(i))
		}
		slices.Sort(ds)
		for _, r2 := range []float64{ds[0], ds[n/3], ds[n-1]} {
			checkAgainstPortable(t, c, ids, r2)
		}
	}
}

func TestL2SqWithinEmpty(t *testing.T) {
	q := Dense{1, 2, 3}
	if got := L2SqWithin([]int32{5}, q, nil, 0, nil, 1); !slices.Equal(got, []int32{5}) {
		t.Fatalf("no rows, no ids: %v", got)
	}
	if got := L2SqWithinAll([]int32{5}, q, nil, 0, 1); !slices.Equal(got, []int32{5}) {
		t.Fatalf("no rows: %v", got)
	}
	// dim 0: every row is at distance 0.
	if got := L2SqWithinAll(nil, Dense{}, nil, 3, 0); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("dim 0: %v", got)
	}
}

// mustPanic runs f and fails unless it panics with one of the kernels'
// own "vector: …" messages (not, say, a runtime index error).
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "vector: ") {
			t.Fatalf("%s: panicked with %q, want a vector: message", what, msg)
		}
	}()
	f()
}

// TestL2SqWithinPanics: a row id outside [0, n) must stop either kernel
// before it reads a row — wherever in the list it sits — and a flat that
// is not n×dim is refused up front.
func TestL2SqWithinPanics(t *testing.T) {
	c := randWithinCase(rng.New(20), 6, 300, false)
	good := make([]int32, 600)
	for i := range good {
		good[i] = int32(i % 300)
	}
	for _, bad := range []int32{-1, 300, math.MaxInt32, math.MinInt32} {
		for _, at := range []int{0, 17, 255, 256, 599} {
			ids := slices.Clone(good)
			ids[at] = bad
			what := fmt.Sprintf("id %d at %d", bad, at)
			mustPanic(t, what+" (dispatch)", func() { L2SqWithin(nil, c.q, c.flat, c.n, ids, 1) })
			mustPanic(t, what+" (portable)", func() { l2SqWithinPortable(nil, c.q, c.flat, c.n, ids, 1) })
		}
	}
	mustPanic(t, "id 0 of no rows", func() { L2SqWithin(nil, c.q, nil, 0, []int32{0}, 1) })
	mustPanic(t, "id 3 of 3 dim-0 rows", func() { L2SqWithin(nil, Dense{}, nil, 3, []int32{3}, 1) })
	mustPanic(t, "short flat", func() { L2SqWithin(nil, c.q, c.flat[:len(c.flat)-1], c.n, nil, 1) })
	mustPanic(t, "short flat (all)", func() { L2SqWithinAll(nil, c.q, c.flat[:len(c.flat)-1], c.n, 1) })
	mustPanic(t, "short q", func() { L2SqWithinAll(nil, c.q[:5], c.flat, c.n, 1) })
}

// fuzzWithinCase decodes a fuzz input: the first byte picks the
// dimension (0…130), the rest is raw float32 bits — q first, then as
// many whole rows as remain — so NaNs, infinities and denormals are all
// one byte flip away.
func fuzzWithinCase(data []byte) withinCase {
	if len(data) == 0 {
		return withinCase{}
	}
	dim := int(data[0]) % 131
	data = data[1:]
	vals := make([]float32, 1+len(data)/4)[1:] // odd offset
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	if len(vals) < dim {
		return withinCase{}
	}
	c := withinCase{q: vals[:dim:dim]}
	if dim == 0 {
		return c
	}
	c.n = (len(vals) - dim) / dim
	c.flat = vals[dim : dim+c.n*dim]
	return c
}

func FuzzL2SqWithin(f *testing.F) {
	seed := func(dim int, vals ...float32) {
		b := []byte{byte(dim)}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b, 1.0)
	}
	seed(1, 0.5, 0.5, 1.5)
	seed(3, 1, 2, 3, 1, 2, 3, 4, 5, 6)
	seed(5, append(slices.Clone(awkward), awkward...)...)
	// The screen's edges: a row and its 1-ulp neighbour at r² = its
	// distance, subnormal and 1e30-scale rows, d mod 8 = 1 and 7.
	seed(9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, math.Nextafter32(9, 10))
	f.Add([]byte{9, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 0, 0, 0x40, 0x40, 0, 0, 0x80, 0x40, 0, 0, 0xa0, 0x40, 0, 0, 0xc0, 0x40, 0, 0, 0xe0, 0x40, 0, 0, 0, 0x41, 0, 0, 0x10, 0x41}, 285.0)
	seed(7, 1e-42, 2e-42, 3e-42, 0, 1e-45, 5e-43, 7e-44, 0, 0, 0, 0, 0, 0, 0)
	seed(15, 1e30, -1e30, 2e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30,
		1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30, 1e30)
	f.Add([]byte{1, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40}, math.Inf(1))
	f.Add([]byte{1, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40}, 5e-324)
	f.Add([]byte{}, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, r2 float64) {
		c := fuzzWithinCase(data)
		if c.n > 64 {
			c.n, c.flat = 64, c.flat[:64*len(c.q)]
		}
		checkDistanceBits(t, c)
		ids := make([]int32, 0, 2*c.n)
		for i := c.n - 1; i >= 0; i-- {
			ids = append(ids, int32(i), int32((i*7)%c.n))
		}
		checkAgainstPortable(t, c, ids, r2)
	})
}
