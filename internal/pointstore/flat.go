package pointstore

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/vector"
)

// qslack is the relative slack applied to the SQ8 rejection threshold.
// The bound math is exact in real arithmetic (see sq8.fit); the slack
// absorbs the float32 accumulation error of the quantized distance
// (relative error ~ dim·eps/4 with the unrolled 4-accumulator sum, so
// 1e-3 covers dimensions into the tens of thousands), so the pre-filter
// can never reject a true neighbor. Survivors are merely re-checked
// exactly, so slack only costs work, never correctness.
const qslack = 1e-3

// FlatL2 stores Dense points struct-of-arrays: one contiguous []float32
// of n rows × dim columns and nothing per point; At and Rows build Dense
// views of the rows on demand. Radius verification compares squared
// distances against r² inside the vector.L2SqWithin batch kernels — no
// per-candidate math.Sqrt, call or pointer chase. With ModeSQ8 it
// additionally keeps a scalar-quantized copy (per-dimension min/max, one
// uint8 code per coordinate — a 4× smaller working set) and classifies
// candidates against it under a conservative decode-error bound, paying
// the exact kernel only inside the narrow ambiguity band around r, which
// keeps answers id-identical to the exact-only store.
type FlatL2 struct {
	dim  int
	n    int
	flat []float32 // n*dim, row-major
	q    *sq8      // nil when ModeOff

	verified  atomic.Uint64
	rejected  atomic.Uint64
	accepted  atomic.Uint64
	rechecked atomic.Uint64
	refits    atomic.Uint64
}

// sq8 is the scalar-quantized copy: per-dimension affine fit
// v ≈ minv[j] + scale[j]·code with code ∈ [0,255]. Rounding makes the
// per-dimension decode error at most scale[j]/2 for in-range values, so
// the L2 decode error of any stored point is at most
//
//	E = sqrt(Σ_j (scale[j]/2)²)
//
// and the triangle inequality gives d(q,p) ≥ d(q,p̂) − E: rejecting a
// candidate only when its quantized distance exceeds r + E can never
// drop a point within r.
type sq8 struct {
	minv  []float32
	maxv  []float32
	scale []float32
	codes []uint8 // n*dim, row-major
	bound float64 // E above

	// luts pools the per-query ADC lookup tables (see buildLUT);
	// VerifyRadius and ScanRadius are called concurrently, so each call
	// borrows its own table.
	luts sync.Pool
}

// DenseL2Builder returns a Builder producing FlatL2 stores in the given
// quantization mode. This is the layout behind every L2 index.
func DenseL2Builder(mode Mode) Builder[vector.Dense] {
	return func(points []vector.Dense) (Store[vector.Dense], error) {
		return NewFlatL2(points, mode)
	}
}

// NewFlatL2 copies points into a fresh struct-of-arrays store. All
// points must share one dimension.
func NewFlatL2(points []vector.Dense, mode Mode) (*FlatL2, error) {
	dim := 0
	if len(points) > 0 {
		dim = len(points[0])
	}
	flat := make([]float32, 0, len(points)*dim)
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("pointstore: point %d has dim %d, want %d", i, len(p), dim)
		}
		flat = append(flat, p...)
	}
	return adoptFlatL2(flat, len(points), dim, mode), nil
}

// AdoptFlatL2 returns a store of dim-dimensional points that takes
// ownership of flat, their rows back to back (a snapshot decoder's
// points section), instead of copying it: the caller must not use flat
// afterwards.
func AdoptFlatL2(flat []float32, dim int, mode Mode) (*FlatL2, error) {
	if dim < 1 || len(flat)%dim != 0 {
		return nil, fmt.Errorf("pointstore: %d floats are no whole number of %d-dimensional rows", len(flat), dim)
	}
	return adoptFlatL2(flat, len(flat)/dim, dim, mode), nil
}

func adoptFlatL2(flat []float32, n, dim int, mode Mode) *FlatL2 {
	s := &FlatL2{dim: dim, n: n, flat: flat}
	if mode == ModeSQ8 {
		s.q = &sq8{}
		s.q.fit(s.flat, s.n, s.dim)
	}
	return s
}

// fit computes the per-dimension min/max over flat, the affine scales,
// the decode-error bound, and (re-)encodes every row.
func (q *sq8) fit(flat []float32, n, dim int) {
	if cap(q.minv) < dim {
		q.minv = make([]float32, dim)
		q.maxv = make([]float32, dim)
		q.scale = make([]float32, dim)
	}
	q.minv, q.maxv, q.scale = q.minv[:dim], q.maxv[:dim], q.scale[:dim]
	for j := 0; j < dim; j++ {
		q.minv[j] = float32(math.Inf(1))
		q.maxv[j] = float32(math.Inf(-1))
	}
	for i := 0; i < n; i++ {
		row := flat[i*dim : (i+1)*dim]
		for j, v := range row {
			if v < q.minv[j] {
				q.minv[j] = v
			}
			if v > q.maxv[j] {
				q.maxv[j] = v
			}
		}
	}
	var b float64
	for j := 0; j < dim; j++ {
		if n == 0 || q.maxv[j] <= q.minv[j] {
			if n == 0 {
				q.minv[j], q.maxv[j] = 0, 0
			} else {
				q.maxv[j] = q.minv[j]
			}
			q.scale[j] = 0
			continue
		}
		q.scale[j] = (q.maxv[j] - q.minv[j]) / 255
		h := float64(q.scale[j]) / 2
		b += h * h
	}
	q.bound = math.Sqrt(b)
	q.codes = q.codes[:0]
	if cap(q.codes) < n*dim {
		q.codes = make([]uint8, 0, n*dim)
	}
	for i := 0; i < n; i++ {
		q.codes = q.encodeRow(q.codes, flat[i*dim:(i+1)*dim])
	}
}

// encodeRow appends the SQ8 codes of one exact row.
func (q *sq8) encodeRow(dst []uint8, row []float32) []uint8 {
	for j, v := range row {
		if q.scale[j] == 0 {
			dst = append(dst, 0)
			continue
		}
		c := math.Round(float64(v-q.minv[j]) / float64(q.scale[j]))
		if c < 0 {
			c = 0
		} else if c > 255 {
			c = 255
		}
		dst = append(dst, uint8(c))
	}
	return dst
}

// inRange reports whether every coordinate of row sits inside the
// fitted per-dimension [min, max]; out-of-range values void the decode
// error bound and force a refit.
func (q *sq8) inRange(row []float32) bool {
	for j, v := range row {
		if v < q.minv[j] || v > q.maxv[j] {
			return false
		}
	}
	return true
}

// buildLUT materializes the asymmetric-distance lookup table of one
// query: lut[j<<8|c] = (q_j − (min_j + scale_j·c))², so the quantized
// squared distance of any stored row is Σ_j lut[j<<8|codes_j] — one
// table load and add per dimension, no decode arithmetic per candidate.
// The table is dim×256 float32 (256 KiB at dim 256) and is built once
// per query, amortized over the whole candidate list.
func (z *sq8) buildLUT(q []float32) []float32 {
	dim := len(z.minv)
	var lut []float32
	if v := z.luts.Get(); v != nil {
		lut = *(v.(*[]float32))
	}
	if cap(lut) < dim<<8 {
		lut = make([]float32, dim<<8)
	}
	lut = lut[:dim<<8]
	for j := 0; j < dim; j++ {
		base := q[j] - z.minv[j]
		step := z.scale[j]
		t := lut[j<<8 : j<<8+256 : j<<8+256]
		for c := range t {
			d := base - step*float32(c)
			t[c] = d * d
		}
	}
	return lut
}

func (z *sq8) putLUT(lut []float32) { z.luts.Put(&lut) }

// Classification of one candidate by its quantized distance.
const (
	quantReject = iota // d̂² > hi: farther than r even if decode erred fully
	quantAccept        // d̂² ≤ lo: within r even if decode erred fully
	quantCheck         // ambiguous band around r: exact re-check required
)

// lutClassify buckets one candidate by its quantized squared distance:
// above hi = (r+E)²·(1+qslack) the true distance cannot be within r
// (reject, no exact check); at or below lo = (r−E)²·(1−qslack) it
// cannot be outside r (accept, no exact check); only the band between
// pays the exact kernel. Every table entry is non-negative, so the
// running sum is monotone and the loop bails as soon as it crosses hi —
// on LSH candidate lists most candidates sit far outside r and reject
// within the first blocks. Each 8-dim block is summed separately before
// folding into the running total, so the float32 accumulation error
// stays ~(8 + dim/8)·eps — well inside the qslack both thresholds
// carry, and far above the ~dim·2⁻⁵³ error of the float64 exact kernel
// the accept side must agree with.
func lutClassify(lut []float32, codes []uint8, lo, hi float32) int {
	var s float32
	i := 0
	for ; i+8 <= len(codes); i += 8 {
		cc := codes[i : i+8 : i+8]
		b := lut[i<<8|int(cc[0])] + lut[(i+1)<<8|int(cc[1])] +
			lut[(i+2)<<8|int(cc[2])] + lut[(i+3)<<8|int(cc[3])]
		b += lut[(i+4)<<8|int(cc[4])] + lut[(i+5)<<8|int(cc[5])] +
			lut[(i+6)<<8|int(cc[6])] + lut[(i+7)<<8|int(cc[7])]
		s += b
		if s > hi {
			return quantReject
		}
	}
	for ; i < len(codes); i++ {
		s += lut[i<<8|int(codes[i])]
	}
	if s > hi {
		return quantReject
	}
	if s <= lo {
		return quantAccept
	}
	return quantCheck
}

// quantBands computes the (lo, hi) classification thresholds for radius
// r under decode bound e. When r < e no distance can be definitely
// within r, so lo is forced negative (sums are non-negative — nothing
// accepts unchecked).
func quantBands(r, e float64) (lo, hi float32) {
	hi = float32((r + e) * (r + e) * (1 + qslack))
	if r <= e {
		return -1, hi
	}
	lo = float32((r - e) * (r - e) * (1 - qslack))
	return lo, hi
}

// lutDistSq sums the table entries the code row selects: the quantized
// squared distance d(q, p̂)². Unrolled 4× with independent float32
// accumulators (the rejection threshold carries qslack for the float32
// rounding).
func lutDistSq(lut []float32, codes []uint8) float64 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(codes); i += 4 {
		cc := codes[i : i+4 : i+4]
		s0 += lut[i<<8|int(cc[0])]
		s1 += lut[(i+1)<<8|int(cc[1])]
		s2 += lut[(i+2)<<8|int(cc[2])]
		s3 += lut[(i+3)<<8|int(cc[3])]
	}
	for ; i < len(codes); i++ {
		s0 += lut[i<<8|int(codes[i])]
	}
	return float64((s0 + s1) + (s2 + s3))
}

// Len returns the stored point count.
func (s *FlatL2) Len() int { return s.n }

// Dim returns the point dimension.
func (s *FlatL2) Dim() int { return s.dim }

// Mode returns the quantization mode in effect.
func (s *FlatL2) Mode() Mode {
	if s.q != nil {
		return ModeSQ8
	}
	return ModeOff
}

// At returns the point with the given id, a view of its row in the flat
// backing (treat as read-only).
func (s *FlatL2) At(id int32) vector.Dense {
	i := int(id)
	if uint(i) >= uint(s.n) {
		panic(fmt.Sprintf("pointstore: At id %d outside [0,%d)", id, s.n))
	}
	return s.flat[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

// Rows returns views of the points lo..hi-1 (read-only), built on demand.
func (s *FlatL2) Rows(lo, hi int) []vector.Dense { return rows(s, lo, hi) }

// Append adds points, keeping the flat and quantized copies coherent.
// If a new value falls outside the fitted per-dimension range, the SQ8
// fit is recomputed over all points and every row re-encoded (counted
// in Stats.QuantRefits) — the decode-error bound must stay valid.
func (s *FlatL2) Append(pts []vector.Dense) error {
	if len(pts) == 0 {
		return nil
	}
	if s.n == 0 && s.dim == 0 {
		// A store built from zero points has no dimension yet; it
		// adopts the first batch's.
		s.dim = len(pts[0])
	}
	for i, p := range pts {
		if len(p) != s.dim {
			return fmt.Errorf("pointstore: Append point %d has dim %d, want %d", i, len(p), s.dim)
		}
	}
	refit := false
	if s.q != nil {
		if len(s.q.minv) != s.dim {
			refit = true // the fit predates dimension adoption
		} else {
			for _, p := range pts {
				if !s.q.inRange(p) {
					refit = true
					break
				}
			}
		}
	}
	for _, p := range pts {
		s.flat = append(s.flat, p...)
	}
	s.n += len(pts)
	if s.q != nil {
		if refit {
			s.q.fit(s.flat, s.n, s.dim)
			s.refits.Add(1)
		} else {
			for i := s.n - len(pts); i < s.n; i++ {
				s.q.codes = s.q.encodeRow(s.q.codes, s.flat[i*s.dim:(i+1)*s.dim])
			}
		}
	}
	return nil
}

// Compact returns a new FlatL2 over the survivors. The SQ8 fit is kept
// (the survivor range is a subset of the fitted range, so the bound
// stays conservative) and survivor code rows are gathered as-is.
func (s *FlatL2) Compact(dead []bool, live int) (Store[vector.Dense], error) {
	if len(dead) != s.n {
		return nil, fmt.Errorf("pointstore: Compact with %d dead flags for %d points", len(dead), s.n)
	}
	ns := &FlatL2{dim: s.dim, n: live, flat: make([]float32, 0, live*s.dim)}
	for i := 0; i < s.n; i++ {
		if !dead[i] {
			ns.flat = append(ns.flat, s.flat[i*s.dim:(i+1)*s.dim]...)
		}
	}
	if len(ns.flat) != live*s.dim {
		return nil, fmt.Errorf("pointstore: Compact expected %d survivors, found %d", live, len(ns.flat)/max(s.dim, 1))
	}
	if s.q != nil {
		nq := &sq8{
			minv:  append([]float32(nil), s.q.minv...),
			maxv:  append([]float32(nil), s.q.maxv...),
			scale: append([]float32(nil), s.q.scale...),
			bound: s.q.bound,
			codes: make([]uint8, 0, live*s.dim),
		}
		for i := 0; i < s.n; i++ {
			if !dead[i] {
				nq.codes = append(nq.codes, s.q.codes[i*s.dim:(i+1)*s.dim]...)
			}
		}
		ns.q = nq
	}
	return ns, nil
}

// VerifyRadius filters the candidate ids with the within-radius batch
// kernel (squared distances against r², AVX2 where the CPU has it). With
// SQ8 on, each candidate is first classified by its quantized distance —
// definitely outside r (rejected), definitely within r (accepted), or in
// the narrow ambiguity band around r, which alone pays the exact kernel;
// the reported set is exactly {id : L2(point[id], q) ≤ r} either way.
func (s *FlatL2) VerifyRadius(q vector.Dense, ids []int32, r float64, out []int32) []int32 {
	if s.n > 0 && len(q) != s.dim {
		panic(fmt.Sprintf("pointstore: VerifyRadius query dim %d, want %d", len(q), s.dim))
	}
	s.verified.Add(uint64(len(ids)))
	if s.q != nil {
		return s.filterSQ8(q, ids, len(ids), r, out)
	}
	return vector.L2SqWithin(out, q, s.flat, s.n, ids, r*r)
}

// ScanRadius scans every stored row (the LINEAR arm). The scan walks
// the flat backing sequentially — no per-point pointer chase — inside
// the batch kernel; with SQ8 on it walks the 4×-smaller code matrix
// instead and pays the exact check only inside the ambiguity band
// around r.
func (s *FlatL2) ScanRadius(q vector.Dense, r float64, out []int32) []int32 {
	if s.n > 0 && len(q) != s.dim {
		panic(fmt.Sprintf("pointstore: ScanRadius query dim %d, want %d", len(q), s.dim))
	}
	s.verified.Add(uint64(s.n))
	if s.q != nil {
		return s.filterSQ8(q, nil, s.n, r, out)
	}
	return vector.L2SqWithinAll(out, q, s.flat, s.n, r*r)
}

// filterSQ8 is both arms with SQ8 on: it classifies count candidates —
// ids[k], or row k itself when ids is nil (the scan) — against the code
// matrix and sends only the ambiguity band to the exact kernel, one id
// at a time so the reported order stays the candidate order.
func (s *FlatL2) filterSQ8(q vector.Dense, ids []int32, count int, r float64, out []int32) []int32 {
	if count == 0 {
		return out
	}
	z, r2 := s.q, r*r
	lo, hi := quantBands(r, z.bound)
	lut := z.buildLUT(q)
	var rej, acc, chk uint64
	var one [1]int32
	for k := 0; k < count; k++ {
		id := int32(k)
		if ids != nil {
			id = ids[k]
		}
		if uint(int(id)) >= uint(s.n) { // before the offset: int(id)*s.dim wraps on 32-bit hosts
			panic(fmt.Sprintf("pointstore: VerifyRadius id %d outside [0,%d)", id, s.n))
		}
		switch lutClassify(lut, z.codes[int(id)*s.dim:(int(id)+1)*s.dim:(int(id)+1)*s.dim], lo, hi) {
		case quantReject:
			rej++
		case quantAccept:
			acc++
			out = append(out, id)
		default:
			chk++
			one[0] = id
			out = vector.L2SqWithin(out, q, s.flat, s.n, one[:], r2)
		}
	}
	z.putLUT(lut)
	s.rejected.Add(rej)
	s.accepted.Add(acc)
	s.rechecked.Add(chk)
	return out
}

// Stats returns the layout and counters.
func (s *FlatL2) Stats() Stats {
	st := Stats{
		Layout:   "flat",
		Quant:    s.Mode().String(),
		Points:   s.n,
		Bytes:    4 * int64(cap(s.flat)),
		Verified: s.verified.Load(),
	}
	if s.q != nil {
		st.Bytes += int64(cap(s.q.codes)) + 4*int64(cap(s.q.minv)+cap(s.q.maxv)+cap(s.q.scale))
		st.QuantBytes = int64(len(s.q.codes))
		st.QuantBound = s.q.bound
		st.QuantRejected = s.rejected.Load()
		st.QuantAccepted = s.accepted.Load()
		st.QuantRechecked = s.rechecked.Load()
		st.QuantRefits = s.refits.Load()
	}
	return st
}
