package lsh

import (
	"fmt"
	"math"

	"repro/internal/hashutil"
	"repro/internal/rng"
	"repro/internal/vector"
)

// SimHash is Charikar's random-hyperplane family (STOC 2002) for angular /
// cosine similarity: a base function is h(x) = sign(⟨a, x⟩) with a a random
// Gaussian vector, so Pr[h(x) = h(y)] = 1 − θ(x, y)/π.
//
// The family is defined over sparse vectors (the Webspam-like workload).
// The distance argument of CollisionProb is the cosine distance 1 − cos θ.
type SimHash struct {
	dim int
}

// NewSimHashCosine returns the SimHash family with distances measured as
// cosine distance 1 − cos θ (the paper's Webspam setting).
func NewSimHashCosine(dim int) *SimHash {
	if dim <= 0 {
		panic(fmt.Sprintf("lsh: NewSimHash dim = %d", dim))
	}
	return &SimHash{dim: dim}
}

// Name implements Family.
func (f *SimHash) Name() string { return "simhash-cosine" }

// Dim returns the ambient dimension.
func (f *SimHash) Dim() int { return f.dim }

// CollisionProb implements Family.
func (f *SimHash) CollisionProb(dist float64) float64 {
	return 1 - math.Acos(min(max(1-dist, -1), 1))/math.Pi
}

// NewHasher implements Family: k independent Gaussian hyperplanes.
func (f *SimHash) NewHasher(k int, r *rng.Rand) Hasher[vector.Sparse] {
	if k < 1 {
		panic(fmt.Sprintf("lsh: NewHasher k = %d", k))
	}
	return &SimHashHasher{planes: gaussianPlanes(f.dim, k, r)}
}

func gaussianPlanes(dim, k int, r *rng.Rand) []vector.Dense {
	planes := make([]vector.Dense, k)
	for i := range planes {
		p := make(vector.Dense, dim)
		for j := range p {
			p[j] = float32(r.Normal())
		}
		planes[i] = p
	}
	return planes
}

// RestoreSimHashHasher reassembles a sparse-vector hasher from planes
// previously obtained via Planes (e.g. from a persisted snapshot). The
// slice is referenced, not copied. Every plane must have the same
// non-zero dimension.
func RestoreSimHashHasher(planes []vector.Dense) (*SimHashHasher, error) {
	if len(planes) < 1 {
		return nil, fmt.Errorf("lsh: RestoreSimHashHasher with no planes")
	}
	dim := len(planes[0])
	for i, p := range planes {
		if len(p) != dim || dim == 0 {
			return nil, fmt.Errorf("lsh: RestoreSimHashHasher plane %d has dim %d, want %d > 0", i, len(p), dim)
		}
	}
	return &SimHashHasher{planes: planes}, nil
}

// SimHashHasher is one g-function: the sign pattern of k hyperplane
// projections, packed to a 64-bit key.
type SimHashHasher struct {
	planes []vector.Dense
}

// Planes returns the k hyperplane normals (read-only by convention). It
// exists for serialization.
func (h *SimHashHasher) Planes() []vector.Dense { return h.planes }

// K implements Hasher.
func (h *SimHashHasher) K() int { return len(h.planes) }

// Key implements Hasher.
func (h *SimHashHasher) Key(p vector.Sparse) uint64 {
	var key, acc uint64
	nacc := 0
	flushed := false
	for _, plane := range h.planes {
		acc <<= 1
		if p.DotDense(plane) >= 0 {
			acc |= 1
		}
		if nacc++; nacc == 64 {
			key = hashutil.Combine(key, acc)
			acc, nacc = 0, 0
			flushed = true
		}
	}
	if nacc > 0 || !flushed {
		key = hashutil.Combine(key, acc)
	}
	return key
}

// Fingerprint SimHashes a dense vector to a b-bit binary fingerprint: bit i
// is the sign of the i-th Gaussian projection. It reproduces the paper's
// preprocessing of MNIST ("we applied SimHash to obtain 64-bit fingerprint
// vectors"), after which Hamming distance approximates angle:
// E[Hamming(F(x), F(y))] = b·θ(x, y)/π.
//
// The planes are derived deterministically from seed, so equal seeds give
// comparable fingerprints.
func Fingerprint(x vector.Dense, bits int, seed uint64) vector.Binary {
	if bits <= 0 {
		panic(fmt.Sprintf("lsh: Fingerprint bits = %d", bits))
	}
	r := rng.New(seed)
	out := vector.NewBinary(bits)
	for i := 0; i < bits; i++ {
		var dot float64
		for j := range x {
			dot += float64(x[j]) * r.Normal()
		}
		out.SetBit(i, dot >= 0)
	}
	return out
}

// Fingerprinter precomputes the projection planes of Fingerprint so a whole
// dataset can be fingerprinted without re-deriving them per point.
type Fingerprinter struct {
	planes []vector.Dense
}

// NewFingerprinter returns a Fingerprinter for dim-dimensional input and
// the given number of fingerprint bits.
func NewFingerprinter(dim, bits int, seed uint64) *Fingerprinter {
	if dim <= 0 || bits <= 0 {
		panic(fmt.Sprintf("lsh: NewFingerprinter dim = %d bits = %d", dim, bits))
	}
	return &Fingerprinter{planes: gaussianPlanes(dim, bits, rng.New(seed))}
}

// Bits returns the fingerprint width.
func (f *Fingerprinter) Bits() int { return len(f.planes) }

// Fingerprint returns the b-bit fingerprint of x.
func (f *Fingerprinter) Fingerprint(x vector.Dense) vector.Binary {
	out := vector.NewBinary(len(f.planes))
	for i, plane := range f.planes {
		out.SetBit(i, plane.Dot(x) >= 0)
	}
	return out
}
