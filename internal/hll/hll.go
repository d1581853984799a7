// Package hll implements the HyperLogLog cardinality sketch of Flajolet,
// Fusy, Gandouet and Meunier (AofA 2007), the auxiliary data structure the
// paper attaches to every LSH bucket.
//
// A sketch holds m = 2^p one-byte registers. An element's 64-bit hash is
// split into a register index (top p bits) and a suffix whose
// leading-zero count + 1 — a Geometric(1/2) variate — is max-folded into the
// register. The cardinality estimate is
//
//	E = α_m · m² / Σ_j 2^(−M[j])
//
// with the linear-counting small-range correction from the paper applied
// when E ≤ 2.5·m and empty registers remain. The standard (relative) error
// is 1.04/√m, e.g. ≤ 9.2% at m = 128, matching the ≤ 10% the Hybrid-LSH
// paper assumes.
//
// Sketches over partitions of a stream merge by component-wise max
// (Merge), which is exactly how the hybrid query estimates the distinct
// candidate count across the L probed buckets.
package hll

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hashutil"
)

// MinM and MaxM bound the supported register counts. The paper uses
// m ∈ [32, 128]; wider bounds are allowed for the ablation experiments.
const (
	MinM = 16
	MaxM = 1 << 16
)

// Sketch is a HyperLogLog cardinality estimator. The zero value is not
// usable; call New.
type Sketch struct {
	p    uint8 // log2 of the register count
	regs []uint8
}

// New returns an empty sketch with m registers. m must be a power of two in
// [MinM, MaxM]; New panics otherwise (a sketch with an invalid geometry is a
// programming error, not a runtime condition).
func New(m int) *Sketch {
	if m < MinM || m > MaxM || m&(m-1) != 0 {
		panic(fmt.Sprintf("hll: m = %d must be a power of two in [%d, %d]", m, MinM, MaxM))
	}
	return &Sketch{p: uint8(bits.TrailingZeros(uint(m))), regs: make([]uint8, m)}
}

// M returns the number of registers.
func (s *Sketch) M() int { return len(s.regs) }

// SizeBytes returns the in-memory size of the register array, the space
// overhead charged per bucket in the paper's analysis.
func (s *Sketch) SizeBytes() int { return len(s.regs) }

// Add folds a pre-hashed element into the sketch. The caller must supply a
// well-mixed 64-bit hash (see hashutil.ElementHash); feeding raw sequential
// ids would bias the estimate badly.
func (s *Sketch) Add(hash uint64) {
	idx := hash >> (64 - s.p)
	suffix := hash<<s.p | 1<<(uint(s.p)-1) // low bits guard: ρ ≤ 64−p+1
	rho := uint8(bits.LeadingZeros64(suffix)) + 1
	if rho > s.regs[idx] {
		s.regs[idx] = rho
	}
}

// AddID hashes a point identifier with the repository-wide element hash and
// adds it. Every sketch that may later be merged must use AddID (or Add with
// the same hash) so that identical points collapse to identical register
// updates.
func (s *Sketch) AddID(id uint64) { s.Add(hashutil.ElementHash(id)) }

// Estimate returns the estimated number of distinct elements added.
func (s *Sketch) Estimate() float64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += math.Ldexp(1, -int(r)) // 2^-r
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(s.regs)) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting on empty registers.
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// StdError returns the theoretical standard relative error 1.04/√m.
func (s *Sketch) StdError() float64 { return 1.04 / math.Sqrt(float64(len(s.regs))) }

// Merge folds o into s by component-wise max, after which s estimates the
// cardinality of the union of the two streams. It panics if the register
// counts differ (merging incompatible geometries silently would corrupt the
// estimate).
func (s *Sketch) Merge(o *Sketch) { s.MergeRegisters(o.regs) }

// MergeRegisters is Merge from a bare register array, such as a sketch
// stored in a bucket table's register slab. It panics if the register
// counts differ.
func (s *Sketch) MergeRegisters(regs []uint8) {
	if len(s.regs) != len(regs) {
		panic(fmt.Sprintf("hll: merging sketches with m = %d and m = %d", len(s.regs), len(regs)))
	}
	for i, r := range regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
}

// FromRegisters reconstructs a sketch from a register array previously
// obtained via Registers (e.g. from a persisted snapshot). The slice is
// copied. It returns an error — not a panic, since the input typically
// comes from external storage — if the register count is not a power of
// two in [MinM, MaxM] or any register exceeds the maximal rank 64.
func FromRegisters(regs []uint8) (*Sketch, error) {
	if err := CheckRegisters(regs); err != nil {
		return nil, err
	}
	s := &Sketch{p: uint8(bits.TrailingZeros(uint(len(regs)))), regs: make([]uint8, len(regs))}
	copy(s.regs, regs)
	return s, nil
}

// CheckRegisters reports whether regs could be a sketch's register
// array: a power-of-two count in [MinM, MaxM], every rank at most 64.
func CheckRegisters(regs []uint8) error {
	m := len(regs)
	if m < MinM || m > MaxM || m&(m-1) != 0 {
		return fmt.Errorf("hll: %d registers, want a power of two in [%d, %d]", m, MinM, MaxM)
	}
	for i, r := range regs {
		if r > 64 {
			return fmt.Errorf("hll: register %d holds rank %d, want <= 64", i, r)
		}
	}
	return nil
}

// Clone returns an independent copy of s.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{p: s.p, regs: make([]uint8, len(s.regs))}
	copy(c.regs, s.regs)
	return c
}

// Reset clears all registers, returning the sketch to the empty state.
func (s *Sketch) Reset() {
	for i := range s.regs {
		s.regs[i] = 0
	}
}

// Empty reports whether no element has ever been added.
func (s *Sketch) Empty() bool {
	for _, r := range s.regs {
		if r != 0 {
			return false
		}
	}
	return true
}

// Registers exposes the raw register array (read-only by convention). It
// exists for serialization and white-box tests.
func (s *Sketch) Registers() []uint8 { return s.regs }

// alpha returns the bias-correction constant α_m from Flajolet et al.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}
