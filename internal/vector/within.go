package vector

import "fmt"

// The within-radius batch kernels: the two loops Algorithm 2 bottoms out
// in for dense L2, "which of these rows is within r² of q". Both take the
// struct-of-arrays layout of the flat point store — n rows of len(q)
// float32 columns, row-major — and append the ids that pass, in input
// order.
//
// On amd64 with AVX2 the rows are walked in assembly (within_amd64.s);
// everywhere else, and for the degenerate shapes, by the portable loop
// below. The two are bit-identical, not merely close: l2SqRaw sends
// dimension j to accumulator s[j mod 4] and returns (s0+s1)+(s2+s3), and
// those four float64 accumulators are exactly the four lanes of one YMM
// register — widen, subtract, multiply, add per 4 dimensions, the same
// IEEE operation on the same operands in the same order, no fused
// multiply-add (the Go compiler does not fuse on amd64 either). So which
// kernel ran is not observable in any answer, and there is nothing to
// select: no flag, no option, one CPUID probe at start-up.

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
	return l2SqWithin(out, q, flat, n, ids, r2)
}

// L2SqWithinAll is L2SqWithin over every row: it appends the row numbers
// in [0, n) whose row is within r2 of q, ascending.
func L2SqWithinAll(out []int32, q Dense, flat []float32, n int, r2 float64) []int32 {
	checkFlat(q, flat, n)
	return l2SqWithinAll(out, q, flat, n, r2)
}

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

// l2SqWithinAllPortable is L2SqWithinAll in plain Go.
func l2SqWithinAllPortable(out []int32, q Dense, flat []float32, n int, r2 float64) []int32 {
	dim := len(q)
	for i := 0; i < n; i++ {
		if l2SqRaw(q, flat[i*dim:i*dim+dim:i*dim+dim]) <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

func checkFlat(q Dense, flat []float32, n int) {
	if n < 0 || len(flat) != n*len(q) {
		panic(fmt.Sprintf("vector: %d values are not %d rows of dim %d", len(flat), n, len(q)))
	}
}

func panicRowID(id int32, n int) {
	panic(fmt.Sprintf("vector: row id %d outside [0,%d)", id, n))
}
