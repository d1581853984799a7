package lsh

import (
	"fmt"
	"math"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// PStable is the p-stable projection family of Datar, Immorlica, Indyk and
// Mirrokni (SoCG 2004): a base function is
//
//	h(v) = ⌊(⟨a, v⟩ + b) / w⌋
//
// with a drawn coordinate-wise from a p-stable distribution — Cauchy for
// p = 1 (L1 distance) or Gaussian for p = 2 (L2 distance) — and b uniform
// in [0, w). The paper uses Cauchy with k = 8, w = 4r on CoverType and
// Gaussian with k = 7, w = 2r on Corel.
type PStable struct {
	dim    int
	w      float64
	cauchy bool
}

// NewPStableL1 returns the 1-stable (Cauchy) family for L1 distance with
// slot width w.
func NewPStableL1(dim int, w float64) *PStable {
	return newPStable(dim, w, true)
}

// NewPStableL2 returns the 2-stable (Gaussian) family for L2 distance with
// slot width w.
func NewPStableL2(dim int, w float64) *PStable {
	return newPStable(dim, w, false)
}

func newPStable(dim int, w float64, cauchy bool) *PStable {
	if dim <= 0 {
		panic(fmt.Sprintf("lsh: NewPStable dim = %d", dim))
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("lsh: NewPStable w = %v", w))
	}
	return &PStable{dim: dim, w: w, cauchy: cauchy}
}

// Name implements Family.
func (f *PStable) Name() string {
	if f.cauchy {
		return "pstable-l1"
	}
	return "pstable-l2"
}

// W returns the slot width.
func (f *PStable) W() float64 { return f.w }

// Dim returns the ambient dimension.
func (f *PStable) Dim() int { return f.dim }

// CollisionProb implements Family using the closed forms of Datar et al.
//
// For distance c and t = w/c:
//
//	L2 (Gaussian): p = 1 − 2Φ(−t) − (2/(√(2π)·t))·(1 − e^{−t²/2})
//	L1 (Cauchy):   p = (2/π)·arctan(t) − (1/(π·t))·ln(1 + t²)
//
// Both tend to 1 as c → 0 and to 0 as c → ∞.
func (f *PStable) CollisionProb(dist float64) float64 {
	if dist <= 0 {
		return 1
	}
	t := f.w / dist
	var p float64
	if f.cauchy {
		p = 2*math.Atan(t)/math.Pi - math.Log(1+t*t)/(math.Pi*t)
	} else {
		p = 1 - 2*normalCDF(-t) - 2/(math.Sqrt(2*math.Pi)*t)*(1-math.Exp(-t*t/2))
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NewHasher implements Family.
func (f *PStable) NewHasher(k int, r *rng.Rand) Hasher[vector.Dense] {
	return f.NewPStableHasher(k, r)
}

// NewPStableHasher returns the concrete hasher type, which additionally
// exposes the per-function slot values and boundary residuals needed by
// query-directed multi-probe LSH.
func (f *PStable) NewPStableHasher(k int, r *rng.Rand) *PStableHasher {
	if k < 1 {
		panic(fmt.Sprintf("lsh: NewHasher k = %d", k))
	}
	h := &PStableHasher{w: f.w, a: make([]vector.Dense, k), b: make([]float64, k)}
	for i := 0; i < k; i++ {
		a := make(vector.Dense, f.dim)
		for j := range a {
			if f.cauchy {
				a[j] = float32(r.Cauchy())
			} else {
				a[j] = float32(r.Normal())
			}
		}
		h.a[i] = a
		h.b[i] = r.Float64() * f.w
	}
	h.slab = vector.PackRows4(h.a)
	return h
}

// RestorePStableHasher reassembles a hasher from parameters previously
// obtained via W, Projections and Offsets (e.g. from a persisted
// snapshot). The slices are referenced, not copied. It returns an error
// on inconsistent or degenerate parameters.
func RestorePStableHasher(w float64, a []vector.Dense, b []float64) (*PStableHasher, error) {
	if len(a) < 1 || len(a) != len(b) {
		return nil, fmt.Errorf("lsh: RestorePStableHasher with %d projections and %d offsets, want equal and >= 1", len(a), len(b))
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return nil, fmt.Errorf("lsh: RestorePStableHasher w = %v, want positive and finite", w)
	}
	dim := len(a[0])
	for i, proj := range a {
		if len(proj) != dim || dim == 0 {
			return nil, fmt.Errorf("lsh: RestorePStableHasher projection %d has dim %d, want %d > 0", i, len(proj), dim)
		}
	}
	return &PStableHasher{w: w, a: a, slab: vector.PackRows4(a), b: b}, nil
}

// PStableHasher is one g-function of the p-stable family. Hashing reads
// slab, the k projections as vector.PackRows4 lays them out, and never a:
// a is kept only so Projections can hand the drawn float32 rows to
// persist unchanged.
type PStableHasher struct {
	w    float64
	a    []vector.Dense
	slab []float64
	b    []float64
}

// Projections returns the k projection vectors a_i (read-only by
// convention). It exists for serialization.
func (h *PStableHasher) Projections() []vector.Dense { return h.a }

// Offsets returns the k uniform offsets b_i (read-only by convention).
// It exists for serialization.
func (h *PStableHasher) Offsets() []float64 { return h.b }

// K implements Hasher.
func (h *PStableHasher) K() int { return len(h.a) }

// W returns the slot width.
func (h *PStableHasher) W() float64 { return h.w }

// Parts appends the k slot indices h_i(p) to dst and returns it. The bucket
// key is HashInts of exactly these values, so probing code can perturb a
// slot index and re-derive the neighboring key.
func (h *PStableHasher) Parts(p vector.Dense, dst []int64) []int64 {
	var buf [16]float64
	proj := h.project(p, buf[:0])
	for i, b := range h.b {
		dst = append(dst, int64(math.Floor((proj[i]+b)/h.w)))
	}
	return dst
}

// project returns ⟨a_i, p⟩ for every projection i, followed by up to
// three padding lanes, in buf's backing array when its capacity allows.
// Each value is bit-identical to a_i.Dot(p); it panics, as Dot does, if
// p does not have the projections' dimension.
func (h *PStableHasher) project(p vector.Dense, buf []float64) []float64 {
	n := (len(h.b) + 3) &^ 3
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	vector.DotRows4(buf, p, h.slab)
	return buf
}

// PartsAndResiduals returns the slot indices and, for each function, the
// distance x_i(−1) from the projection to the lower slot boundary, as a
// fraction of w in (0, 1). The distance to the upper boundary is
// 1 − residual. Query-directed multi-probe LSH scores perturbations by
// these residuals (Lv et al., VLDB 2007).
func (h *PStableHasher) PartsAndResiduals(p vector.Dense) (parts []int64, residuals []float64) {
	parts = make([]int64, len(h.b))
	residuals = h.project(p, nil)[:len(h.b)] // overwritten in place
	for i, b := range h.b {
		x := (residuals[i] + b) / h.w
		fl := math.Floor(x)
		parts[i] = int64(fl)
		residuals[i] = x - fl
	}
	return parts, residuals
}

// Key implements Hasher.
func (h *PStableHasher) Key(p vector.Dense) uint64 {
	var buf [16]int64
	parts := h.Parts(p, buf[:0])
	return hashutil.HashInts(parts)
}

// KeyFromParts folds externally computed (possibly perturbed) slot indices
// into a bucket key, matching Key for unperturbed parts.
func KeyFromParts(parts []int64) uint64 { return hashutil.HashInts(parts) }
