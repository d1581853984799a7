// Package vector defines the three point representations used by the
// reproduction and their arithmetic:
//
//   - Dense: a []float32 vector (Corel- and CoverType-like data),
//   - Sparse: a sorted index/value pair list (Webspam-like data),
//   - Binary: a bit-packed vector (MNIST-like SimHash fingerprints).
//
// float32 matches what high-dimensional similarity-search systems store in
// practice: it halves memory traffic, and the ~7 significant digits are far
// below the noise floor of LSH bucketing. Accumulations are done in float64
// to avoid cancellation on long vectors.
//
// Every product that feeds a sum is written float64(x*y): the explicit
// conversion rounds the product on its own, which the Go spec says rules
// out a fused multiply-add. On arm64 the compiler would otherwise fuse
// these reductions, and a hash key or a radius boundary would then depend
// on the architecture that computed it.
package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Dense is a dense d-dimensional vector.
type Dense []float32

// Dot returns the inner product ⟨a, b⟩. It panics if lengths differ.
//
// The ordering promise, on every GOARCH: starting from +0, for i = 0, 1,
// …, len−1 in turn, the product float64(a[i])·float64(b[i]) is rounded
// to float64 and then added, rounded again, to the running sum. One
// accumulator, no reassociation, no fused multiply-add. DotRows4 keeps
// the same promise per lane, which is what the p-stable hashers derive
// bucket keys from, so a seeded rebuild on any architecture reproduces
// the checked-in snapshot bytes. The 4× unroll only hoists bounds checks.
func (a Dense) Dot(b Dense) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: Dot on mismatched dims %d and %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += float64(float64(aa[0]) * float64(bb[0]))
		s += float64(float64(aa[1]) * float64(bb[1]))
		s += float64(float64(aa[2]) * float64(bb[2]))
		s += float64(float64(aa[3]) * float64(bb[3]))
	}
	for ; i < len(a); i++ {
		s += float64(float64(a[i]) * float64(b[i]))
	}
	return s
}

// Norm2 returns the Euclidean norm ‖a‖₂.
func (a Dense) Norm2() float64 {
	var s float64
	for _, v := range a {
		x := float64(v)
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Norm1 returns the Manhattan norm ‖a‖₁.
func (a Dense) Norm1() float64 {
	var s float64
	for _, v := range a {
		s += math.Abs(float64(v))
	}
	return s
}

// Normalize scales a to unit Euclidean norm in place and returns it.
// The zero vector is returned unchanged.
func (a Dense) Normalize() Dense {
	n := a.Norm2()
	if n == 0 {
		return a
	}
	inv := float32(1 / n)
	for i := range a {
		a[i] *= inv
	}
	return a
}

// Clone returns a deep copy of a.
func (a Dense) Clone() Dense {
	b := make(Dense, len(a))
	copy(b, a)
	return b
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b Dense) float64 {
	return math.Sqrt(L2Sq(a, b))
}

// L2Sq returns the squared Euclidean distance between a and b. Radius
// verification compares it against r² directly, saving the math.Sqrt per
// candidate that L2 pays; the square root is monotone, so the comparison
// is unchanged. The loop is 4×-unrolled with four independent
// accumulators (unlike Dot, no hash key depends on the summation order)
// and the slice headers are re-sliced so the compiler drops the
// per-element bounds checks.
func L2Sq(a, b Dense) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: L2Sq on mismatched dims %d and %d", len(a), len(b)))
	}
	return l2SqRaw(a, b)
}

// l2SqRaw is L2Sq without the length check: the arithmetic the
// within-radius batch kernels (within.go) run over rows whose geometry
// guarantees matching lengths, in plain Go here and lane for lane in
// assembly. Which dimension goes to which accumulator, the tail going to
// s0 and the order of the final sum are therefore fixed.
func l2SqRaw(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		d0 := float64(aa[0]) - float64(bb[0])
		d1 := float64(aa[1]) - float64(bb[1])
		d2 := float64(aa[2]) - float64(bb[2])
		d3 := float64(aa[3]) - float64(bb[3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

// L1 returns the Manhattan distance between a and b.
func L1(a, b Dense) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: L1 on mismatched dims %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += math.Abs(float64(v) - float64(b[i]))
	}
	return s
}

// CacheKey returns an exact byte encoding of a, injective over Dense
// values of any dimension: 4 little-endian bytes of math.Float32bits per
// coordinate (the length disambiguates dimensions). Result caches use it
// as a collision-free lookup key, so two queries share an entry iff they
// are bit-identical.
func (a Dense) CacheKey() string {
	buf := make([]byte, 0, 4*len(a))
	for _, v := range a {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return string(buf)
}

// Sparse is a sparse vector in coordinate form. Idx is strictly increasing;
// Val[i] is the value at dimension Idx[i]. Dim is the ambient dimension.
type Sparse struct {
	Dim int
	Idx []int32
	Val []float32
}

// NewSparse builds a Sparse from possibly unsorted (idx, val) pairs,
// dropping explicit zeros and summing duplicate indices. It panics on an
// index outside [0, dim).
func NewSparse(dim int, idx []int32, val []float32) Sparse {
	if len(idx) != len(val) {
		panic("vector: NewSparse idx/val length mismatch")
	}
	type pair struct {
		i int32
		v float32
	}
	ps := make([]pair, 0, len(idx))
	for k, i := range idx {
		if i < 0 || int(i) >= dim {
			panic(fmt.Sprintf("vector: NewSparse index %d outside [0,%d)", i, dim))
		}
		ps = append(ps, pair{i, val[k]})
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	s := Sparse{Dim: dim}
	for _, p := range ps {
		if n := len(s.Idx); n > 0 && s.Idx[n-1] == p.i {
			s.Val[n-1] += p.v
		} else {
			s.Idx = append(s.Idx, p.i)
			s.Val = append(s.Val, p.v)
		}
	}
	// Drop zeros produced by input or by duplicate cancellation.
	out := Sparse{Dim: dim}
	for k, v := range s.Val {
		if v != 0 {
			out.Idx = append(out.Idx, s.Idx[k])
			out.Val = append(out.Val, v)
		}
	}
	return out
}

// NNZ returns the number of stored non-zero entries.
func (a Sparse) NNZ() int { return len(a.Idx) }

// Dot returns ⟨a, b⟩ via a sorted-merge over the two index lists.
func (a Sparse) Dot(b Sparse) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += float64(float64(a.Val[i]) * float64(b.Val[j]))
			i++
			j++
		}
	}
	return s
}

// DotDense returns ⟨a, d⟩ where d is a dense vector of a's ambient dimension.
func (a Sparse) DotDense(d Dense) float64 {
	var s float64
	for k, i := range a.Idx {
		s += float64(float64(a.Val[k]) * float64(d[i]))
	}
	return s
}

// Norm2 returns ‖a‖₂.
func (a Sparse) Norm2() float64 {
	var s float64
	for _, v := range a.Val {
		x := float64(v)
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Normalize scales a to unit Euclidean norm in place and returns it.
func (a Sparse) Normalize() Sparse {
	n := a.Norm2()
	if n == 0 {
		return a
	}
	inv := float32(1 / n)
	for i := range a.Val {
		a.Val[i] *= inv
	}
	return a
}

// CosineSim returns the cosine similarity ⟨a,b⟩/(‖a‖‖b‖), or 0 if either
// vector is zero.
func CosineSim(a, b Sparse) float64 {
	na, nb := a.Norm2(), b.Norm2()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// CosineSimDense is CosineSim for dense vectors.
func CosineSimDense(a, b Dense) float64 {
	na, nb := a.Norm2(), b.Norm2()
	if na == 0 || nb == 0 {
		return 0
	}
	return a.Dot(b) / (na * nb)
}

// Binary is a bit-packed binary vector of Dim bits stored little-endian in
// 64-bit words: bit i lives at Words[i/64] bit position i%64.
type Binary struct {
	Dim   int
	Words []uint64
}

// NewBinary returns an all-zero binary vector of dim bits.
func NewBinary(dim int) Binary {
	return Binary{Dim: dim, Words: make([]uint64, (dim+63)/64)}
}

// Bit reports whether bit i is set. It panics if i is outside [0, Dim).
func (a Binary) Bit(i int) bool {
	if i < 0 || i >= a.Dim {
		panic(fmt.Sprintf("vector: Bit(%d) outside [0,%d)", i, a.Dim))
	}
	return a.Words[i>>6]>>(uint(i)&63)&1 == 1
}

// SetBit sets bit i to v.
func (a Binary) SetBit(i int, v bool) {
	if i < 0 || i >= a.Dim {
		panic(fmt.Sprintf("vector: SetBit(%d) outside [0,%d)", i, a.Dim))
	}
	mask := uint64(1) << (uint(i) & 63)
	if v {
		a.Words[i>>6] |= mask
	} else {
		a.Words[i>>6] &^= mask
	}
}

// FlipBit inverts bit i.
func (a Binary) FlipBit(i int) {
	if i < 0 || i >= a.Dim {
		panic(fmt.Sprintf("vector: FlipBit(%d) outside [0,%d)", i, a.Dim))
	}
	a.Words[i>>6] ^= uint64(1) << (uint(i) & 63)
}

// PopCount returns the number of set bits.
func (a Binary) PopCount() int {
	n := 0
	for _, w := range a.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a deep copy of a.
func (a Binary) Clone() Binary {
	b := Binary{Dim: a.Dim, Words: make([]uint64, len(a.Words))}
	copy(b.Words, a.Words)
	return b
}

// Hamming returns the Hamming distance between a and b. It panics if the
// dimensions differ.
func Hamming(a, b Binary) int {
	if a.Dim != b.Dim {
		panic(fmt.Sprintf("vector: Hamming on mismatched dims %d and %d", a.Dim, b.Dim))
	}
	return HammingWords(a.Words, b.Words)
}

// HammingWords returns the popcount of a XOR b over raw word slices: the
// within-radius kernels' row loop (hammingWordsUpTo) with a bound no
// count reaches.
func HammingWords(a, b []uint64) int {
	return hammingWordsUpTo(a, b, math.MaxInt)
}

// CacheKey returns an exact byte encoding of a, injective over Binary
// values: Dim as 4 little-endian bytes followed by each packed word as 8
// (Dim pins the live bits of the last word, which NewBinary zero-pads).
// Result caches use it as a collision-free lookup key.
func (a Binary) CacheKey() string {
	buf := make([]byte, 0, 4+8*len(a.Words))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Dim))
	for _, w := range a.Words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return string(buf)
}

// ToDense expands a binary vector to a dense 0/1 float vector. It walks
// set bits word-at-a-time (TrailingZeros64 + clear-lowest-bit) instead
// of testing each of the Dim positions through the bounds-checked Bit.
func (a Binary) ToDense() Dense {
	d := make(Dense, a.Dim)
	for wi, w := range a.Words {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			if i >= a.Dim {
				break // padding bits beyond Dim (zero by invariant)
			}
			d[i] = 1
			w &= w - 1
		}
	}
	return d
}

// SparseToDense expands a sparse vector to dense form.
func SparseToDense(a Sparse) Dense {
	d := make(Dense, a.Dim)
	for k, i := range a.Idx {
		d[i] = a.Val[k]
	}
	return d
}
