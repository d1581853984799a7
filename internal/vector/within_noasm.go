//go:build !amd64 || noasm

// The portable dispatch: every platform but amd64, and amd64 built with
// -tags noasm, which is how the portable kernels get tested on an AVX2 host.

package vector

func l2SqWithin(out []int32, q Dense, flat []float32, n int, ids []int32, r2 float64) []int32 {
	return l2SqWithinPortable(out, q, flat, n, ids, r2)
}

func l2SqWithinAll(out []int32, q Dense, flat []float32, n int, r2 float64) []int32 {
	return l2SqWithinAllPortable(out, q, flat, n, r2)
}

func dotRows4(out []float64, q Dense, slab []float64) { dotRows4Portable(out, q, slab) }

func dotRows4Batch(out []float64, qs []Dense, slab []float64) { dotRows4BatchPortable(out, qs, slab) }

const haveAVX2 = false
