//go:build !amd64 || noasm

// The portable dispatch: every platform but amd64, and amd64 built with
// -tags noasm, which is how the portable kernels get tested on an AVX2 host.

package vector

func l2SqWithin(out []int32, q Dense, flat []float32, n int, ids []int32, r2 float64) ([]int32, int) {
	return l2SqWithinPortable(out, q, flat, n, ids, r2), 0
}

func dotRows4(out []float64, q Dense, slab []float64) { dotRows4Portable(out, q, slab) }

func dotRows8Batch(out []float64, qs []Dense, slab []float32) { dotRows8Portable(out, qs, slab) }

const haveAVX2, haveFMA = false, false
