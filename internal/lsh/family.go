// Package lsh implements the locality-sensitive hashing machinery the paper
// builds on: the four LSH families of its experiments — bit sampling for
// Hamming distance (Indyk–Motwani, STOC 1998), SimHash for cosine distance
// (Charikar, STOC 2002), and p-stable projections for L1/L2 (Datar et al.,
// SoCG 2004) — plus MinHash for Jaccard (Broder et al., STOC 1998), the
// E2LSH-style parameter solver k = ⌈log(1−δ^{1/L})/log p₁⌉, and the L
// hash tables with a HyperLogLog sketch per bucket (Algorithm 1 of the
// paper).
package lsh

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/vector"
)

// Hasher maps a point to its bucket key in one hash table. A Hasher is the
// concatenation g = (h₁, …, h_k) of k base functions from one LSH family,
// folded to a single 64-bit key. Implementations are safe for concurrent
// use after construction.
type Hasher[P any] interface {
	// Key returns the bucket key of p.
	Key(p P) uint64
	// K returns the number of concatenated base functions.
	K() int
}

// A blockHasher keys a block of points faster than one Key call per
// point: keys sets dst[i] to Key(points[i]) for every point, working in
// s.
type blockHasher[P any] interface {
	keys(points []P, dst []uint64, s *KeyScratch)
}

// KeyScratch is the block path's working memory, reusable across blocks:
// a block's projections and, for dense points, the norm bounds the
// p-stable screen needs once per block, not once per table; rechecked
// counts the projections the screen left to the float64 reference.
type KeyScratch struct {
	proj, norms []float64
	zero        vector.Dense
	rechecked   int
}

// begin readies s for a new block: for dense points, its norm bounds.
func (s *KeyScratch) begin(points any) {
	s.norms = s.norms[:0]
	if ps, ok := points.([]vector.Dense); ok {
		for _, p := range ps { // zero is never written: all of its capacity is 0
			s.zero = slices.Grow(s.zero, len(p))[:max(len(s.zero), len(p))]
		}
		s.norms = appendNorms(s.norms, ps, s.zero)
	}
}

var hashEvals atomic.Uint64

// HashEvaluations returns how many times a point has been hashed into
// one table, by any path (Keys, BlockKeys, a lookup, a probe, Build or
// Append), since the process started.
func HashEvaluations() uint64 { return hashEvals.Load() }

// Keys sets dst[i] to h.Key(points[i]) for every point, through h's
// block path when it has one, working in s (nil allocates one).
func Keys[P any](h Hasher[P], points []P, dst []uint64, s *KeyScratch) {
	if s == nil {
		s = new(KeyScratch)
	}
	s.begin(points)
	keysOf(h, points, dst, s)
}

// keysOf is Keys for a block s has begun.
func keysOf[P any](h Hasher[P], points []P, dst []uint64, s *KeyScratch) {
	hashEvals.Add(uint64(len(points)))
	if bh, ok := h.(blockHasher[P]); ok {
		bh.keys(points, dst, s)
		return
	}
	for i, p := range points {
		dst[i] = h.Key(p)
	}
}

// Family describes an LSH family for a point type P: it constructs fresh
// per-table hashers and knows the collision probability of a single base
// function as a function of distance.
type Family[P any] interface {
	// NewHasher returns a g-function of k base functions drawn with r.
	NewHasher(k int, r *rng.Rand) Hasher[P]
	// CollisionProb returns p(dist) = Pr[h(x) = h(y)] for one base
	// function at distance dist. It is monotonically non-increasing.
	CollisionProb(dist float64) float64
	// Name returns a short identifier for reports.
	Name() string
}

// SolveK returns the concatenation length
//
//	k = ⌈ log(1 − δ^{1/L}) / log p₁ ⌉
//
// used by the paper (the E2LSH practical setting): with L tables and k
// functions per table, a point at collision probability p₁ is missed in
// all tables with probability (1−p₁^k)^L ≈ δ. The requirement
// (1−p₁^k)^L ≤ δ is an upper bound on k; the paper's ceiling takes the
// next integer up, trading a sliver of recall (miss probability slightly
// above δ, never above the k−1 level's) for a markedly smaller candidate
// set. Use SolveKStrict for a hard δ guarantee.
//
// SolveK panics if p₁ ∉ (0, 1), δ ∉ (0, 1) or L < 1 — those are
// configuration errors. The result is at least 1.
func SolveK(p1, delta float64, L int) int {
	k := int(math.Ceil(solveKReal(p1, delta, L)))
	if k < 1 {
		k = 1
	}
	return k
}

// SolveKStrict returns the largest k whose miss probability provably stays
// within δ: ⌊ log(1 − δ^{1/L}) / log p₁ ⌋, floored at 1. At k = 1 the
// guarantee may be unattainable for any concatenation length (then more
// tables are needed); MissProb reports the achieved value.
func SolveKStrict(p1, delta float64, L int) int {
	k := int(math.Floor(solveKReal(p1, delta, L)))
	if k < 1 {
		k = 1
	}
	return k
}

func solveKReal(p1, delta float64, L int) float64 {
	if p1 <= 0 || p1 >= 1 {
		panic(fmt.Sprintf("lsh: SolveK requires p1 in (0,1), got %v", p1))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("lsh: SolveK requires delta in (0,1), got %v", delta))
	}
	if L < 1 {
		panic(fmt.Sprintf("lsh: SolveK requires L >= 1, got %d", L))
	}
	return math.Log(1-math.Pow(delta, 1/float64(L))) / math.Log(p1)
}

// MissProb returns the probability (1 − p₁^k)^L that a point with per-
// function collision probability p₁ shares no bucket with the query in any
// of the L tables — the failure probability the δ budget bounds.
func MissProb(p1 float64, k, L int) float64 {
	return math.Pow(1-math.Pow(p1, float64(k)), float64(L))
}

// normalCDF is Φ, the standard normal CDF, via the stdlib complementary
// error function: Φ(x) = erfc(−x/√2)/2.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
