package lsh

import (
	"fmt"
	"math"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// CrossPolytope is the cross-polytope LSH family for angular distance
// (Andoni, Indyk, Laarhoven, Razenshteyn, Schmidt — NIPS 2015), the family
// behind FALCONN and the asymptotically optimal choice for unit vectors:
// a base function applies a random rotation R and hashes x to the closest
// signed standard basis vector of Rx, i.e. h(x) = ±argmax_i |(Rx)_i|.
//
// Its collision probability has no closed form, so the family calibrates
// p(θ) once at construction by Monte Carlo over pairs with known angle —
// deterministic under the calibration seed — and CollisionProb
// interpolates that table. This keeps it compatible with SolveK and the
// hybrid cost machinery, demonstrating that the paper's approach needs
// nothing from a family beyond a collision-probability curve.
//
// Distances are normalized angles θ/π in [0, 1] (use distance.Angular);
// inputs should be unit vectors (the hash itself is scale-invariant, but
// the calibration assumes the angular metric).
type CrossPolytope struct {
	dim   int
	probs []float64 // p at θ/π = i/(len-1)
}

// NewCrossPolytope returns the cross-polytope family over dim-dimensional
// dense vectors, calibrating its collision-probability curve with the
// given seed (same seed → identical curve).
func NewCrossPolytope(dim int, calibrationSeed uint64) *CrossPolytope {
	if dim < 2 {
		panic(fmt.Sprintf("lsh: NewCrossPolytope dim = %d, want >= 2", dim))
	}
	f := &CrossPolytope{dim: dim}
	f.calibrate(calibrationSeed)
	return f
}

// calibrate estimates p(θ) on a grid by hashing random pairs at each
// angle with fresh single-function hashers.
func (f *CrossPolytope) calibrate(seed uint64) {
	const gridPoints = 17
	const samples = 600
	r := rng.New(seed ^ 0xc01dca11b007ed)
	f.probs = make([]float64, gridPoints)
	for gi := 0; gi < gridPoints; gi++ {
		theta := math.Pi * float64(gi) / float64(gridPoints-1)
		if gi == 0 {
			f.probs[gi] = 1 // identical vectors always collide
			continue
		}
		coll := 0
		for s := 0; s < samples; s++ {
			// A pair at angle theta: u random unit, v rotated toward a
			// random orthogonal direction.
			u := randomUnit(f.dim, r)
			w := orthogonalUnit(u, r)
			v := make(vector.Dense, f.dim)
			for j := range v {
				v[j] = float32(math.Cos(theta)*float64(u[j]) + math.Sin(theta)*float64(w[j]))
			}
			h := f.NewHasher(1, r)
			if h.Key(u) == h.Key(v) {
				coll++
			}
		}
		f.probs[gi] = float64(coll) / samples
	}
	// Enforce monotone non-increase (Monte Carlo jitter can locally
	// invert the curve, which would break SolveK's assumptions).
	for i := 1; i < len(f.probs); i++ {
		if f.probs[i] > f.probs[i-1] {
			f.probs[i] = f.probs[i-1]
		}
	}
}

func randomUnit(dim int, r *rng.Rand) vector.Dense {
	u := make(vector.Dense, dim)
	for j := range u {
		u[j] = float32(r.Normal())
	}
	return u.Normalize()
}

// orthogonalUnit returns a unit vector orthogonal to u (Gram–Schmidt on a
// random direction).
func orthogonalUnit(u vector.Dense, r *rng.Rand) vector.Dense {
	for {
		w := randomUnit(len(u), r)
		d := w.Dot(u)
		for j := range w {
			w[j] -= float32(d * float64(u[j]))
		}
		if n := w.Norm2(); n > 1e-6 {
			inv := float32(1 / n)
			for j := range w {
				w[j] *= inv
			}
			return w
		}
	}
}

// RestoreCrossPolytope reassembles the family from a calibrated curve
// previously obtained via ProbsTable (e.g. from a persisted snapshot),
// skipping the Monte-Carlo calibration. The curve must hold at least two
// probabilities in [0, 1]; it is copied and re-clamped to monotone
// non-increase.
func RestoreCrossPolytope(dim int, probs []float64) (*CrossPolytope, error) {
	if dim < 2 {
		return nil, fmt.Errorf("lsh: RestoreCrossPolytope dim = %d, want >= 2", dim)
	}
	if len(probs) < 2 {
		return nil, fmt.Errorf("lsh: RestoreCrossPolytope with %d curve points, want >= 2", len(probs))
	}
	f := &CrossPolytope{dim: dim, probs: make([]float64, len(probs))}
	for i, p := range probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("lsh: RestoreCrossPolytope curve point %d = %v, want in [0, 1]", i, p)
		}
		f.probs[i] = p
		if i > 0 && f.probs[i] > f.probs[i-1] {
			f.probs[i] = f.probs[i-1]
		}
	}
	return f, nil
}

// Name implements Family.
func (f *CrossPolytope) Name() string { return "crosspolytope" }

// Dim returns the ambient dimension.
func (f *CrossPolytope) Dim() int { return f.dim }

// CollisionProb implements Family by linear interpolation of the
// calibrated curve; dist is the normalized angle θ/π ∈ [0, 1].
func (f *CrossPolytope) CollisionProb(dist float64) float64 {
	if dist <= 0 {
		return 1
	}
	if dist >= 1 {
		return f.probs[len(f.probs)-1]
	}
	pos := dist * float64(len(f.probs)-1)
	lo := int(pos)
	if lo >= len(f.probs)-1 {
		return f.probs[len(f.probs)-1]
	}
	frac := pos - float64(lo)
	return f.probs[lo]*(1-frac) + f.probs[lo+1]*frac
}

// NewHasher implements Family: k independent random-rotation argmax
// functions. The rotation is a dense Gaussian matrix (the practical
// substitute for a uniform rotation; FALCONN's FFT-based pseudo-rotations
// are an optimization, not a semantic change).
func (f *CrossPolytope) NewHasher(k int, r *rng.Rand) Hasher[vector.Dense] {
	if k < 1 {
		panic(fmt.Sprintf("lsh: NewHasher k = %d", k))
	}
	h := &CrossPolytopeHasher{dim: f.dim, rotations: make([][]vector.Dense, k)}
	for i := 0; i < k; i++ {
		rows := make([]vector.Dense, f.dim)
		for ri := range rows {
			row := make(vector.Dense, f.dim)
			for j := range row {
				row[j] = float32(r.Normal() / math.Sqrt(float64(f.dim)))
			}
			rows[ri] = row
		}
		h.rotations[i] = rows
	}
	return h
}

// RestoreCrossPolytopeHasher reassembles a hasher from rotation matrices
// previously obtained via Rotations (e.g. from a persisted snapshot).
// Each rotation must be a dim×dim matrix; the slices are referenced, not
// copied.
func RestoreCrossPolytopeHasher(dim int, rotations [][]vector.Dense) (*CrossPolytopeHasher, error) {
	if dim < 2 {
		return nil, fmt.Errorf("lsh: RestoreCrossPolytopeHasher dim = %d, want >= 2", dim)
	}
	if len(rotations) < 1 {
		return nil, fmt.Errorf("lsh: RestoreCrossPolytopeHasher with no rotations")
	}
	for i, rows := range rotations {
		if len(rows) != dim {
			return nil, fmt.Errorf("lsh: RestoreCrossPolytopeHasher rotation %d has %d rows, want %d", i, len(rows), dim)
		}
		for ri, row := range rows {
			if len(row) != dim {
				return nil, fmt.Errorf("lsh: RestoreCrossPolytopeHasher rotation %d row %d has dim %d, want %d", i, ri, len(row), dim)
			}
		}
	}
	return &CrossPolytopeHasher{dim: dim, rotations: rotations}, nil
}

// CrossPolytopeHasher is one g-function: k rotations, each contributing
// the signed index of the dominant coordinate.
type CrossPolytopeHasher struct {
	dim       int
	rotations [][]vector.Dense
}

// Rotations returns the k rotation matrices, each dim rows of dim
// entries (read-only by convention). It exists for serialization.
func (h *CrossPolytopeHasher) Rotations() [][]vector.Dense { return h.rotations }

// K implements Hasher.
func (h *CrossPolytopeHasher) K() int { return len(h.rotations) }

// Key implements Hasher.
func (h *CrossPolytopeHasher) Key(p vector.Dense) uint64 {
	var buf [16]int64
	parts := buf[:0]
	for _, rows := range h.rotations {
		best := 0
		bestAbs := math.Inf(-1)
		sign := int64(1)
		for i, row := range rows {
			v := row.Dot(p)
			if a := math.Abs(v); a > bestAbs {
				bestAbs = a
				best = i
				if v >= 0 {
					sign = 1
				} else {
					sign = -1
				}
			}
		}
		parts = append(parts, sign*int64(best+1))
	}
	return hashutil.HashInts(parts)
}

// ProbsTable exposes the calibrated curve (θ/π grid → probability) for
// inspection and tests.
func (f *CrossPolytope) ProbsTable() []float64 {
	return append([]float64(nil), f.probs...)
}
