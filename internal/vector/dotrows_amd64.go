//go:build !noasm

package vector

func dotRows4(out []float64, q Dense, slab []float64) {
	if !haveAVX2 || len(q) == 0 {
		dotRows4Portable(out, q, slab)
		return
	}
	dotRows4AVX2(&out[0], &q[0], &slab[0], len(q), len(out)/4)
}

// dotRows4AVX2 writes the 4·blocks dot products of q with the rows of a
// dim-wide slab to out; dim and blocks are ≥ 1.
//
//go:noescape
func dotRows4AVX2(out *float64, q *float32, slab *float64, dim, blocks int)
