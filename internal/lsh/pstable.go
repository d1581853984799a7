package lsh

import (
	"fmt"
	"math"
	"slices"

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
	a, b := make([]vector.Dense, k), make([]float64, k)
	for i := 0; i < k; i++ {
		proj := make(vector.Dense, f.dim)
		for j := range proj {
			if f.cauchy {
				proj[j] = float32(r.Cauchy())
			} else {
				proj[j] = float32(r.Normal())
			}
		}
		a[i] = proj
		b[i] = r.Float64() * f.w
	}
	return newPStableHasher(f.w, a, b)
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
	return newPStableHasher(w, a, b), nil
}

func newPStableHasher(w float64, a []vector.Dense, b []float64) *PStableHasher {
	h := &PStableHasher{w: w, a: a, slab: vector.PackRows4(a), slab8: vector.PackRows8(a), b: b, tol: make([]float64, len(a))}
	rel, abs := vector.DotRows8Error(len(a[0]))
	for i, proj := range a {
		h.tol[i] = 2 * rel * proj.Norm2() * (1 + 0x1p-20) / w
	}
	h.eta, h.invW = 2*abs/w, 1/w
	return h
}

// PStableHasher is one g-function of the p-stable family. Key, Parts
// and PartsAndResiduals read slab, the k projections as vector.PackRows4
// lays them out; the block path screens with slab8, their float32
// vector.PackRows8 copy (exact: the projections are float32). a is kept
// for the screen's fallback and so Projections can hand the drawn rows
// to persist unchanged.
type PStableHasher struct {
	w     float64
	a     []vector.Dense
	slab  []float64
	slab8 []float32
	b     []float64
	tol   []float64 // the screen's margin: tol[i]·‖p‖ + eta + 2⁻⁴⁸·|x|
	eta   float64
	invW  float64
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
	return h.slots(h.project(p, buf[:0]), dst)
}

// slots appends ⌊(proj[i] + b_i)/w⌋ for every function i to dst.
func (h *PStableHasher) slots(proj []float64, dst []int64) []int64 {
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

// keysBlock is how many points keysBy projects per kernel call: their
// projections, keysBlock·8⌈k/8⌉ float64s, stay in L1 until folded.
const keysBlock = 64

// keys sets dst[i] to Key(points[i]) for every point, the block path
// keysOf takes for two points or more: screened where the CPU has the
// FMA kernel.
func (h *PStableHasher) keys(points []vector.Dense, dst []uint64, s *KeyScratch) {
	h.keysBy(points, dst, s, vector.HaveFMA())
}

// keysBy is keys projecting keysBlock points per kernel call: in float32
// (vector.DotRows8Batch) with screenSlots proving each slot equal to
// Key's when screen is set, else through the float64 reference
// (vector.DotRows4Batch).
func (h *PStableHasher) keysBy(points []vector.Dense, dst []uint64, s *KeyScratch, screen bool) {
	n := (len(h.b) + 3) &^ 3
	if screen {
		n = (len(h.b) + 7) &^ 7
		if len(s.norms) != len(points) {
			s.begin(points)
		}
	}
	s.proj = slices.Grow(s.proj[:0], min(len(points), keysBlock)*n)
	var buf [16]int64
	for base := 0; base < len(points); base += keysBlock {
		blk := points[base:min(len(points), base+keysBlock)]
		proj := s.proj[:len(blk)*n]
		if screen {
			vector.DotRows8Batch(proj, blk, h.slab8)
		} else {
			vector.DotRows4Batch(proj, blk, h.slab)
		}
		for i, p := range blk {
			parts := buf[:0]
			if screen {
				parts = h.screenSlots(p, proj[i*n:], s.norms[base+i], parts, s)
			} else {
				parts = h.slots(proj[i*n:], parts)
			}
			dst[base+i] = hashutil.HashInts(parts)
		}
	}
}

// screenSlots appends p's k slot indices from its screened projections
// proj, given pn ≥ ‖p‖₂. x = (proj[i]+b_i)·(1/w) is within
// M = 2·(rel·‖a_i‖·pn + abs)/w + 2⁻⁴⁸·|x| of the reference (⟨a_i,p⟩+b_i)/w
// (vector.DotRows8Error with Σ|aⱼpⱼ| ≤ ‖a_i‖·‖p‖, doubled; five roundings
// of +b, 1/w, · and / taken as 32), so ⌊x⌋ is the reference slot when x
// lies more than M inside it. Any other slot, NaN and Inf included, is
// recomputed from Dense.Dot and counted in s.rechecked.
func (h *PStableHasher) screenSlots(p vector.Dense, proj []float64, pn float64, dst []int64, s *KeyScratch) []int64 {
	for i, b := range h.b {
		x := (proj[i] + b) * h.invW
		f := math.Floor(x)
		if m := h.tol[i]*pn + h.eta + 0x1p-48*math.Abs(x); !(x-f > m && f+1-x > m) {
			s.rechecked++
			f = math.Floor((h.a[i].Dot(p) + b) / h.w)
		}
		dst = append(dst, int64(f))
	}
	return dst
}

// appendNorms appends an upper bound on ‖p‖₂ for every point: its
// float64 L2Sq from the origin (zero, at least as long as any point),
// whose relative error is far below 2⁻²⁰ at any dimension the screen
// takes, rounded up by 2⁻²⁰.
func appendNorms(dst []float64, points []vector.Dense, zero vector.Dense) []float64 {
	for _, p := range points {
		dst = append(dst, math.Sqrt(vector.L2Sq(p, zero[:len(p)]))*(1+0x1p-20))
	}
	return dst
}

// KeyFromParts folds externally computed (possibly perturbed) slot indices
// into a bucket key, matching Key for unperturbed parts.
func KeyFromParts(parts []int64) uint64 { return hashutil.HashInts(parts) }
