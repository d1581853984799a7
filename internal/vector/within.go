package vector

import (
	"fmt"
	"math"
)

// The within-radius batch kernels: the two loops Algorithm 2 bottoms out
// in for dense L2, "which of these rows is within r² of q". Both take the
// struct-of-arrays layout of the flat point store — n rows of len(q)
// float32 columns, row-major — and append the ids that pass, in input
// order.
//
// A row is within r² exactly when the float64 l2SqRaw(q, row) ≤ r², on
// every platform. On amd64 with AVX2 and FMA a float32 screen decides
// first (within_amd64.s), never reporting its sum s, only a decision
// proven equal: with D the exact Σ(q−p)² and γ(n, u) = n·u/(1−n·u),
//
//	|s − D| ≤ e32·D + η,   e32 = γ(d/8+6, 2⁻²⁴), η = (d+16)·2⁻¹⁴⁹
//	|l2SqRaw − D| ≤ e64·D, e64 = γ(d/4+7, 2⁻⁵³)
//
// (the subtraction's rounding squared, ⌈d/8⌉ FMAs, a three-level lane
// sum, underflow; the reference's subtraction, square and d/4+5 adds).
// Doubling every term, s ≤ lo = r²(1−2e32)/(1+2e64) − 2η proves a pass,
// s > hi = r²(1+2e32)/(1−2e64) + 2η a fail (withinBand rounds both
// outward); a row between them, or with s NaN or Inf, goes to l2SqRaw.
// r² outside (0, 1e30], d > 2²⁰ and other CPUs skip the screen: which
// kernel ran is not observable, and no flag or option selects one.

// withinChunk is how many rows a batch kernel takes at a time: out is
// grown once per chunk, by at most this much beyond what the hits need,
// and on amd64 one assembly call covers a chunk.
const withinChunk = 256

// L2SqWithin appends to out the ids among ids whose row of flat is within
// squared Euclidean distance r2 of q, in input order. flat holds n rows
// of len(q) columns. A distance equal to r2 passes; a NaN distance (or a
// NaN r2) does not. It panics if flat is not n×len(q) or an id is
// outside [0, n).
func L2SqWithin(out []int32, q Dense, flat []float32, n int, ids []int32, r2 float64) []int32 {
	checkFlat(q, flat, n)
	out, _ = l2SqWithin(out, q, flat, n, ids, r2)
	return out
}

// L2SqWithinAll is L2SqWithin over every row: it appends the row numbers
// in [0, n) whose row is within r2 of q, ascending.
func L2SqWithinAll(out []int32, q Dense, flat []float32, n int, r2 float64) []int32 {
	checkFlat(q, flat, n)
	out, _ = l2SqWithinAll(out, q, flat, n, r2)
	return out
}

// WithinBandShare is L2SqWithin reporting only the share of ids the
// float32 screen left to the float64 reference (0 where no screen runs):
// how wide the band is on real data, for benchmarks.
func WithinBandShare(q Dense, flat []float32, n int, ids []int32, r2 float64) float64 {
	checkFlat(q, flat, n)
	_, band := l2SqWithin(nil, q, flat, n, ids, r2)
	return float64(band) / float64(max(len(ids), 1))
}

// withinBand returns the screen's float32 thresholds for r2 over rows of
// dim values (see the top of this file), or ok false where the screen is
// not proven.
func withinBand(dim int, r2 float64) (lo, hi float32, ok bool) {
	if !(r2 > 0 && r2 <= 1e30) || dim > 1<<20 {
		return 0, 0, false
	}
	e32, e64 := float64(2*gamma(dim/8+6, 0x1p-24)), float64(2*gamma(dim/4+7, 0x1p-53))
	eta := float64(2 * float64(dim+16) * 0x1p-149)
	l := float64(r2*(1-e32))/(1+e64) - eta
	h := float64(r2*(1+e32))/(1-e64) + eta
	return math.Nextafter32(float32(l), float32(math.Inf(-1))), math.Nextafter32(float32(h), float32(math.Inf(1))), true
}

// gamma is the classic bound on n roundings of unit roundoff u:
// Π(1+εᵢ) lies within 1 ± n·u/(1−n·u).
func gamma(n int, u float64) float64 { return float64(float64(n)*u) / (1 - float64(float64(n)*u)) }

// l2SqWithinPortable is L2SqWithin in plain Go: the reference arithmetic
// and the path of every CPU without AVX2.
func l2SqWithinPortable(out []int32, q Dense, flat []float32, n int, ids []int32, r2 float64) []int32 {
	dim := len(q)
	for _, id := range ids {
		if uint(id) >= uint(n) {
			panicRowID(id, n)
		}
		row := flat[int(id)*dim : int(id)*dim+dim : int(id)*dim+dim]
		if l2SqRaw(q, row) <= r2 {
			out = append(out, id)
		}
	}
	return out
}

// l2SqWithinAll is l2SqWithin over the ids of every row, a chunk at a
// time.
func l2SqWithinAll(out []int32, q Dense, flat []float32, n int, r2 float64) ([]int32, int) {
	var ids [withinChunk]int32
	var band, b int
	for first := 0; first < n; first += withinChunk {
		c := ids[:min(n-first, withinChunk)]
		for i := range c {
			c[i] = int32(first + i)
		}
		out, b = l2SqWithin(out, q, flat, n, c, r2)
		band += b
	}
	return out, band
}

func checkFlat(q Dense, flat []float32, n int) {
	if n < 0 || len(flat) != n*len(q) {
		panic(fmt.Sprintf("vector: %d values are not %d rows of dim %d", len(flat), n, len(q)))
	}
}

func panicRowID(id int32, n int) {
	panic(fmt.Sprintf("vector: row id %d outside [0,%d)", id, n))
}
