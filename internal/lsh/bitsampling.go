package lsh

import (
	"fmt"
	"slices"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// BitSampling is the original LSH family of Indyk and Motwani for Hamming
// distance on {0,1}^d: a base function h samples one coordinate uniformly,
// so Pr[h(x) = h(y)] = 1 − dist(x, y)/d. The paper uses it on the 64-bit
// SimHash fingerprints of MNIST.
type BitSampling struct {
	dim int
}

// NewBitSampling returns the bit-sampling family over {0,1}^dim.
func NewBitSampling(dim int) *BitSampling {
	if dim <= 0 {
		panic(fmt.Sprintf("lsh: NewBitSampling dim = %d", dim))
	}
	return &BitSampling{dim: dim}
}

// Name implements Family.
func (f *BitSampling) Name() string { return "bitsampling" }

// Dim returns the ambient dimension.
func (f *BitSampling) Dim() int { return f.dim }

// CollisionProb implements Family: p(dist) = 1 − dist/d, clamped to [0, 1].
func (f *BitSampling) CollisionProb(dist float64) float64 {
	p := 1 - dist/float64(f.dim)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NewHasher implements Family: k coordinates sampled independently and
// uniformly with replacement, exactly the Indyk–Motwani construction.
func (f *BitSampling) NewHasher(k int, r *rng.Rand) Hasher[vector.Binary] {
	if k < 1 {
		panic(fmt.Sprintf("lsh: NewHasher k = %d", k))
	}
	bits := make([]int, k)
	for i := range bits {
		bits[i] = r.Intn(f.dim)
	}
	return newBitSamplingHasher(bits)
}

// RestoreBitSamplingHasher reassembles a hasher from coordinate indices
// previously obtained via Bits (e.g. from a persisted snapshot). dim is
// the ambient dimension the indices must stay inside; the slice is
// referenced, not copied.
func RestoreBitSamplingHasher(dim int, bits []int) (*BitSamplingHasher, error) {
	if len(bits) < 1 {
		return nil, fmt.Errorf("lsh: RestoreBitSamplingHasher with no sampled bits")
	}
	for i, b := range bits {
		if b < 0 || b >= dim {
			return nil, fmt.Errorf("lsh: RestoreBitSamplingHasher bit %d samples coordinate %d outside [0,%d)", i, b, dim)
		}
	}
	return newBitSamplingHasher(bits), nil
}

// BitSamplingHasher is one g-function of the bit-sampling family: the
// concatenation of k sampled coordinates.
type BitSamplingHasher struct {
	bits []int
	top  int // the largest sampled coordinate
}

func newBitSamplingHasher(bits []int) *BitSamplingHasher {
	return &BitSamplingHasher{bits: bits, top: slices.Max(bits)}
}

// K implements Hasher.
func (h *BitSamplingHasher) K() int { return len(h.bits) }

// Bytes is the size of the sampled coordinate list.
func (h *BitSamplingHasher) Bytes() int { return 8 * cap(h.bits) }

// Bits returns the sampled coordinate indices (used by the Hamming
// multi-probe extension to enumerate neighbor buckets).
func (h *BitSamplingHasher) Bits() []int { return h.bits }

// Key implements Hasher: the k sampled bits are packed MSB-first into
// 64-bit words and folded to a single key. Like Binary.Bit, it panics
// when p is too short for a sampled coordinate.
func (h *BitSamplingHasher) Key(p vector.Binary) uint64 {
	if h.top >= p.Dim {
		p.Bit(h.top) // panics
	}
	var key uint64
	for c := 0; c < len(h.bits); c += 64 {
		var acc uint64
		for _, idx := range h.bits[c:min(c+64, len(h.bits))] {
			acc = acc<<1 | p.Words[idx>>6]>>(uint(idx)&63)&1
		}
		key = hashutil.Combine(key, acc)
	}
	return key
}
