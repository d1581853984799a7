//go:build !noasm

package vector

func dotRows4(out []float64, q Dense, slab []float64) {
	if !haveAVX2 || len(q) == 0 {
		dotRows4Portable(out, q, slab)
		return
	}
	dotRows4AVX2(&out[0], &q[0], &slab[0], len(q), len(out)/4)
}

func dotRows4Batch(out []float64, qs []Dense, slab []float64) {
	dim, n := len(qs[0]), len(out)/len(qs)
	if !haveAVX2 || dim == 0 {
		dotRows4BatchPortable(out, qs, slab)
		return
	}
	// The four-query kernel takes the blocks in pairs; an odd last block,
	// and the queries past the last four, go through dotRows4AVX2.
	for ; len(qs) >= 4 && n >= 8; qs, out = qs[4:], out[4*n:] {
		dotRows4x4AVX2(&out[0], &qs[0][0], &qs[1][0], &qs[2][0], &qs[3][0], &slab[0], dim, n/8, n)
		if n%8 != 0 {
			for p, q := range qs[:4] {
				dotRows4AVX2(&out[p*n+n-4], &q[0], &slab[(n-4)*dim], dim, 1)
			}
		}
	}
	for p, q := range qs {
		dotRows4AVX2(&out[p*n], &q[0], &slab[0], dim, n/4)
	}
}

// dotRows4AVX2 writes the 4·blocks dot products of q with the rows of a
// dim-wide slab to out; dim and blocks are ≥ 1.
//
//go:noescape
func dotRows4AVX2(out *float64, q *float32, slab *float64, dim, blocks int)

// dotRows4x4AVX2 is dotRows4AVX2 for the four queries q0…q3 at once,
// over the slab's first 2·pairs blocks (pairs ≥ 1): query p's products
// go to out[p·n:].
//
//go:noescape
func dotRows4x4AVX2(out *float64, q0, q1, q2, q3 *float32, slab *float64, dim, pairs, n int)
