// Package pointstore owns point storage and candidate verification for
// the hybrid indexes. The paper's Algorithm 2 bottoms out in exactly two
// loops — the LINEAR arm and the LSH candidate filter — and both are
// "distance(point[id], q) <= r" over whatever layout the points live in.
// This package turns that layout into a first-class, swappable layer:
//
//   - Generic[P] wraps a plain []P plus a distance function — the
//     pre-refactor behavior, used by the metrics without a specialized
//     layout (L1, cosine, angular, Jaccard).
//   - FlatL2 stores Dense points struct-of-arrays (one contiguous
//     []float32, dim columns) and verifies with squared-distance kernels;
//     optionally it keeps an SQ8 scalar-quantized copy (per-dimension
//     min/max, one byte per coordinate) and filters candidates against it
//     with a conservative error bound before re-checking survivors
//     exactly — answers stay id-identical by construction.
//   - FlatBinary stores Binary points as one contiguous []uint64 word
//     matrix and verifies with the Hamming within-radius batch kernels
//     (one XOR + POPCNT + compare per 64-bit row).
//
// Every store implements the same Store[P] contract: batch
// VerifyRadius over candidate id lists, ScanRadius for the linear arm,
// Append/Compact keeping all copies coherent, and Stats for
// observability. core.Index, covering.Index and (through core) the
// multi-probe and sharded modes all verify through this layer.
package pointstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/distance"
)

// Mode selects the quantization behavior of the layouts that support it.
type Mode uint8

// The quantization modes.
const (
	// ModeOff stores exact values only.
	ModeOff Mode = iota
	// ModeSQ8 additionally keeps a scalar-quantized uint8 copy and uses
	// it as a conservative pre-filter during radius verification.
	ModeSQ8
)

// String returns "off" or "sq8".
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSQ8:
		return "sq8"
	default:
		return "unknown"
	}
}

// ParseMode parses "off" or "sq8".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return ModeOff, nil
	case "sq8":
		return ModeSQ8, nil
	default:
		return ModeOff, fmt.Errorf("pointstore: unknown quantization mode %q (want off or sq8)", s)
	}
}

// Stats is a point-in-time snapshot of one store's layout and
// verification counters. The counters are cumulative since the store was
// built (Compact starts a fresh store and fresh counters).
type Stats struct {
	// Layout is "generic" or "flat".
	Layout string `json:"layout"`
	// Quant is the quantization mode in effect ("off" or "sq8").
	Quant string `json:"quant"`
	// Points is the stored point count.
	Points int `json:"points"`
	// QuantBytes is the size of the quantized copy (0 when off).
	QuantBytes int64 `json:"quant_bytes"`
	// QuantBound is the conservative L2 decode-error bound E of the
	// current SQ8 fit: a candidate is rejected without an exact check
	// only when its quantized distance exceeds r + E.
	QuantBound float64 `json:"quant_bound"`
	// Verified counts candidates that entered radius verification
	// (VerifyRadius ids plus ScanRadius points).
	Verified uint64 `json:"verified"`
	// QuantRejected counts candidates the quantized filter rejected
	// without an exact distance computation (quantized distance above
	// r + E even after slack).
	QuantRejected uint64 `json:"quant_rejected"`
	// QuantAccepted counts candidates the quantized filter reported
	// without an exact distance computation (quantized distance below
	// r − E even after slack).
	QuantAccepted uint64 `json:"quant_accepted"`
	// QuantRechecked counts candidates inside the ambiguity band around
	// r that were re-checked exactly.
	QuantRechecked uint64 `json:"quant_rechecked"`
	// QuantRefits counts full re-encodes triggered by Append batches
	// containing values outside the fitted per-dimension range.
	QuantRefits uint64 `json:"quant_refits"`
}

// Add accumulates other's counters and sizes into s (for aggregating
// shard stats); layout/quant/bound are taken from other when s is empty.
func (s *Stats) Add(other Stats) {
	if s.Layout == "" {
		s.Layout, s.Quant, s.QuantBound = other.Layout, other.Quant, other.QuantBound
	}
	s.Points += other.Points
	s.QuantBytes += other.QuantBytes
	s.Verified += other.Verified
	s.QuantRejected += other.QuantRejected
	s.QuantAccepted += other.QuantAccepted
	s.QuantRechecked += other.QuantRechecked
	s.QuantRefits += other.QuantRefits
}

// Store is the storage + verification contract. Reads (At, Slice,
// VerifyRadius, ScanRadius, Stats) are safe concurrently; Append and
// Compact follow the single-writer rule of the index that owns the
// store.
type Store[P any] interface {
	// Len returns the stored point count.
	Len() int
	// At returns the point with the given id.
	At(id int32) P
	// Slice exposes all points, id-aligned (read-only; for
	// serialization and compaction hand-off).
	Slice() []P
	// Append adds points, assigning ids upward from Len.
	Append(pts []P) error
	// Compact returns a new store holding only the points with
	// dead[id] == false, renumbered by rank among survivors; live is the
	// expected survivor count.
	Compact(dead []bool, live int) (Store[P], error)
	// VerifyRadius appends to out the ids (in input order) whose
	// distance to q is at most r. The answer is exact: quantized layouts
	// may pre-filter, but every reported id passed an exact check and no
	// id within r is dropped.
	VerifyRadius(q P, ids []int32, r float64, out []int32) []int32
	// ScanRadius appends to out every stored id within r of q (the
	// LINEAR arm).
	ScanRadius(q P, r float64, out []int32) []int32
	// Stats returns a snapshot of the layout and verification counters.
	Stats() Stats
}

// Builder constructs a store over an initial point set. Index
// configuration carries a Builder so each metric picks its layout.
type Builder[P any] func(points []P) (Store[P], error)

// Generic wraps a plain []P and a distance function: the layout-agnostic
// fallback store. Verification is one distance call per candidate,
// exactly the pre-refactor code path.
type Generic[P any] struct {
	pts      []P
	dist     distance.Func[P]
	verified atomic.Uint64
}

// GenericBuilder returns a Builder producing Generic stores over dist.
func GenericBuilder[P any](dist distance.Func[P]) Builder[P] {
	return func(points []P) (Store[P], error) {
		return NewGeneric(points, dist), nil
	}
}

// NewGeneric builds a Generic store. The slice is aliased, not copied
// (matching the historical Index behavior for unspecialized metrics).
func NewGeneric[P any](points []P, dist distance.Func[P]) *Generic[P] {
	return &Generic[P]{pts: points, dist: dist}
}

// Len returns the stored point count.
func (g *Generic[P]) Len() int { return len(g.pts) }

// At returns point id.
func (g *Generic[P]) At(id int32) P { return g.pts[id] }

// Slice exposes the backing point slice.
func (g *Generic[P]) Slice() []P { return g.pts }

// Append adds points.
func (g *Generic[P]) Append(pts []P) error {
	g.pts = append(g.pts, pts...)
	return nil
}

// Compact returns a new Generic over the survivors.
func (g *Generic[P]) Compact(dead []bool, live int) (Store[P], error) {
	if len(dead) != len(g.pts) {
		return nil, fmt.Errorf("pointstore: Compact with %d dead flags for %d points", len(dead), len(g.pts))
	}
	pts := make([]P, 0, live)
	for i := range g.pts {
		if !dead[i] {
			pts = append(pts, g.pts[i])
		}
	}
	return NewGeneric(pts, g.dist), nil
}

// VerifyRadius filters ids by exact distance.
func (g *Generic[P]) VerifyRadius(q P, ids []int32, r float64, out []int32) []int32 {
	for _, id := range ids {
		if g.dist(g.pts[id], q) <= r {
			out = append(out, id)
		}
	}
	g.verified.Add(uint64(len(ids)))
	return out
}

// ScanRadius scans all points.
func (g *Generic[P]) ScanRadius(q P, r float64, out []int32) []int32 {
	for i := range g.pts {
		if g.dist(g.pts[i], q) <= r {
			out = append(out, int32(i))
		}
	}
	g.verified.Add(uint64(len(g.pts)))
	return out
}

// Stats returns the layout and counters.
func (g *Generic[P]) Stats() Stats {
	return Stats{
		Layout:   "generic",
		Quant:    ModeOff.String(),
		Points:   len(g.pts),
		Verified: g.verified.Load(),
	}
}
