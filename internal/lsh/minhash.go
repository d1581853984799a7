package lsh

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// MinHash is the min-wise independent permutation family of Broder,
// Charikar, Frieze and Mitzenmacher (STOC 1998) for Jaccard similarity on
// sets, here represented as binary vectors whose set bits are the set
// members: h(A) = min_{i ∈ A} π(i) for a random permutation π, so
// Pr[h(A) = h(B)] = J(A, B) = 1 − dist_Jaccard(A, B).
//
// The paper cites MinHash as one of the LSH families its hybrid strategy
// applies to; it is included for completeness and used by the near-
// duplicate example.
type MinHash struct {
	dim int
}

// NewMinHash returns the MinHash family over subsets of [0, dim).
func NewMinHash(dim int) *MinHash {
	if dim <= 0 {
		panic(fmt.Sprintf("lsh: NewMinHash dim = %d", dim))
	}
	return &MinHash{dim: dim}
}

// Name implements Family.
func (f *MinHash) Name() string { return "minhash" }

// Dim returns the ambient dimension.
func (f *MinHash) Dim() int { return f.dim }

// CollisionProb implements Family: p(dist) = 1 − dist.
func (f *MinHash) CollisionProb(dist float64) float64 {
	p := 1 - dist
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NewHasher implements Family: k independent hash-based "permutations"
// (random 64-bit mixers, the standard practical substitute for min-wise
// independent permutations).
func (f *MinHash) NewHasher(k int, r *rng.Rand) Hasher[vector.Binary] {
	if k < 1 {
		panic(fmt.Sprintf("lsh: NewHasher k = %d", k))
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return &MinHashHasher{seeds: seeds}
}

// RestoreMinHashHasher reassembles a hasher from permutation seeds
// previously obtained via Seeds (e.g. from a persisted snapshot). The
// slice is referenced, not copied.
func RestoreMinHashHasher(seeds []uint64) (*MinHashHasher, error) {
	if len(seeds) < 1 {
		return nil, fmt.Errorf("lsh: RestoreMinHashHasher with no seeds")
	}
	return &MinHashHasher{seeds: seeds}, nil
}

// MinHashHasher is one g-function: the concatenation of k min-hash values.
type MinHashHasher struct {
	seeds []uint64
}

// Seeds returns the k permutation seeds (read-only by convention). It
// exists for serialization.
func (h *MinHashHasher) Seeds() []uint64 { return h.seeds }

// K implements Hasher.
func (h *MinHashHasher) K() int { return len(h.seeds) }

// Key implements Hasher. The empty set hashes to a dedicated key so that
// empty inputs collide only with each other.
func (h *MinHashHasher) Key(p vector.Binary) uint64 {
	var buf [16]uint64
	mins := buf[:0]
	for _, seed := range h.seeds {
		min := uint64(math.MaxUint64)
		for w, word := range p.Words {
			for word != 0 {
				i := w<<6 | bits.TrailingZeros64(word)
				if v := hashutil.Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15); v < min {
					min = v
				}
				word &= word - 1
			}
		}
		mins = append(mins, min)
	}
	return hashutil.HashUint64s(mins)
}
