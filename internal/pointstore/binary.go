package pointstore

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/vector"
)

// FlatBinary stores Binary points struct-of-arrays: one contiguous
// []uint64 of n rows × wpr words, with id-aligned aliasing Binary
// headers for At/Slice. Hamming verification is one call of the
// vector.HammingWithin batch kernels over the contiguous rows, against an
// integer bit bound — for a one-word row (a 64-bit fingerprint) one XOR,
// POPCNT and compare, no per-row call, re-slice or Words pointer chase.
// Binary points carry no quantized copy (they are already one bit per
// coordinate).
type FlatBinary struct {
	dim   int // bits per point
	wpr   int // words per row
	n     int
	words []uint64
	hdrs  []vector.Binary

	verified atomic.Uint64
}

// BinaryHammingBuilder returns a Builder producing FlatBinary stores;
// it is the layout behind the Hamming (bit-sampling and covering)
// indexes.
func BinaryHammingBuilder() Builder[vector.Binary] {
	return func(points []vector.Binary) (Store[vector.Binary], error) {
		return NewFlatBinary(points)
	}
}

// EmptyFlatBinary returns an empty store of the given bit dimension,
// ready to Append into (covering.Index builds its store this way, since
// an empty point set carries no dimension of its own).
func EmptyFlatBinary(dim int) *FlatBinary {
	s := &FlatBinary{dim: dim, wpr: (dim + 63) / 64}
	s.hdrs = []vector.Binary{}
	return s
}

// NewFlatBinary copies points into a fresh struct-of-arrays store. All
// points must share one dimension.
func NewFlatBinary(points []vector.Binary) (*FlatBinary, error) {
	dim := 0
	if len(points) > 0 {
		dim = points[0].Dim
	}
	s := &FlatBinary{dim: dim, wpr: (dim + 63) / 64, n: len(points)}
	s.words = make([]uint64, 0, s.n*s.wpr)
	for i, p := range points {
		if p.Dim != dim {
			return nil, fmt.Errorf("pointstore: point %d has dim %d, want %d", i, p.Dim, dim)
		}
		s.words = append(s.words, p.Words...)
	}
	s.alignHeaders(true)
	return s, nil
}

// alignHeaders extends the aliasing Binary headers to s.n rows after the
// word backing grew: in place, only the new rows' (so a stream of small
// Appends costs O(batch) each, the slice growing as append does); after
// it moved, all of them, since the old ones point into the abandoned
// array.
func (s *FlatBinary) alignHeaders(moved bool) {
	if moved {
		s.hdrs = s.hdrs[:0]
	}
	s.hdrs = slices.Grow(s.hdrs, s.n-len(s.hdrs))
	for i := len(s.hdrs); i < s.n; i++ {
		s.hdrs = append(s.hdrs, vector.Binary{Dim: s.dim, Words: s.words[i*s.wpr : (i+1)*s.wpr : (i+1)*s.wpr]})
	}
}

// Len returns the stored point count.
func (s *FlatBinary) Len() int { return s.n }

// Dim returns the point dimension in bits.
func (s *FlatBinary) Dim() int { return s.dim }

// At returns the point with the given id (an aliasing header; treat as
// read-only).
func (s *FlatBinary) At(id int32) vector.Binary { return s.hdrs[id] }

// Slice exposes the id-aligned point headers (read-only).
func (s *FlatBinary) Slice() []vector.Binary { return s.hdrs }

// Append adds points.
func (s *FlatBinary) Append(pts []vector.Binary) error {
	if len(pts) == 0 {
		return nil
	}
	if s.n == 0 && s.dim == 0 {
		// A store built from zero points has no dimension yet; it
		// adopts the first batch's.
		s.dim = pts[0].Dim
		s.wpr = (s.dim + 63) / 64
	}
	for i, p := range pts {
		if p.Dim != s.dim {
			return fmt.Errorf("pointstore: Append point %d has dim %d, want %d", i, p.Dim, s.dim)
		}
	}
	moved := len(s.words)+len(pts)*s.wpr > cap(s.words)
	for _, p := range pts {
		s.words = append(s.words, p.Words...)
	}
	s.n += len(pts)
	s.alignHeaders(moved)
	return nil
}

// Compact returns a new FlatBinary over the survivors.
func (s *FlatBinary) Compact(dead []bool, live int) (Store[vector.Binary], error) {
	if len(dead) != s.n {
		return nil, fmt.Errorf("pointstore: Compact with %d dead flags for %d points", len(dead), s.n)
	}
	ns := &FlatBinary{dim: s.dim, wpr: s.wpr, n: live}
	ns.words = make([]uint64, 0, live*s.wpr)
	for i := 0; i < s.n; i++ {
		if !dead[i] {
			ns.words = append(ns.words, s.words[i*s.wpr:(i+1)*s.wpr]...)
		}
	}
	if len(ns.words) != live*s.wpr {
		return nil, fmt.Errorf("pointstore: Compact expected %d survivors, found %d", live, len(ns.words)/max(s.wpr, 1))
	}
	ns.alignHeaders(true)
	return ns, nil
}

// VerifyRadius filters the candidate ids by exact Hamming distance, in
// one call of the within-radius batch kernel.
func (s *FlatBinary) VerifyRadius(q vector.Binary, ids []int32, r float64, out []int32) []int32 {
	if s.n > 0 && q.Dim != s.dim {
		panic(fmt.Sprintf("pointstore: VerifyRadius query dim %d, want %d", q.Dim, s.dim))
	}
	s.verified.Add(uint64(len(ids)))
	return vector.HammingWithin(out, q.Words, s.words, s.wpr, s.n, ids, s.bitBound(r))
}

// ScanRadius scans every stored row (the LINEAR arm), sequentially,
// inside the batch kernel.
func (s *FlatBinary) ScanRadius(q vector.Binary, r float64, out []int32) []int32 {
	if s.n > 0 && q.Dim != s.dim {
		panic(fmt.Sprintf("pointstore: ScanRadius query dim %d, want %d", q.Dim, s.dim))
	}
	s.verified.Add(uint64(s.n))
	return vector.HammingWithinAll(out, q.Words, s.words, s.wpr, s.n, s.bitBound(r))
}

// bitBound turns the radius into the largest bit count it admits, once
// per call, so the kernels compare integers: count ≤ bitBound(r) exactly
// when float64(count) ≤ r for every count a row can have. NaN and
// negative radii admit nothing (−1; −0.0 is 0), a radius at or beyond dim
// admits every row (+Inf is what core.Calibrate passes), fractions floor.
func (s *FlatBinary) bitBound(r float64) int {
	switch {
	case r >= float64(s.dim):
		return s.dim
	case r >= 0:
		return int(r)
	default:
		return -1
	}
}

// Stats returns the layout and counters.
func (s *FlatBinary) Stats() Stats {
	return Stats{
		Layout:   "flat",
		Quant:    ModeOff.String(),
		Points:   s.n,
		Verified: s.verified.Load(),
	}
}
