//go:build !noasm

package vector

func dotRows4(out []float64, q Dense, slab []float64) {
	if !haveAVX2 || len(q) == 0 {
		dotRows4Portable(out, q, slab)
		return
	}
	dotRows4AVX2(&out[0], &q[0], &slab[0], len(q), len(out)/4)
}

func dotRows8Batch(out []float64, qs []Dense, slab []float32) {
	if !haveFMA || len(qs[0]) == 0 {
		dotRows8Portable(out, qs, slab)
		return
	}
	n := len(out) / len(qs)
	var ptrs [8]*float32
	for g := 0; g < len(qs); g += 8 {
		grp := qs[g:min(g+8, len(qs))]
		for p := range ptrs {
			ptrs[p] = &grp[min(p, len(grp)-1)][0]
		}
		dotRows8FMA(&out[g*n], &ptrs, len(grp), &slab[0], len(grp[0]), n/8, n)
	}
}

// dotRows4AVX2 writes the 4·blocks dot products of q with the rows of a
// dim-wide slab to out; dim and blocks are ≥ 1.
//
//go:noescape
func dotRows4AVX2(out *float64, q *float32, slab *float64, dim, blocks int)

// dotRows8FMA is the screen for the queries ptrs[:nq] (1 ≤ nq ≤ 8; the
// other pointers must be readable rows too) over blocks ≥ 1 blocks of a
// dim ≥ 1 float32 slab: query p's values go to out[p·n:].
//
//go:noescape
func dotRows8FMA(out *float64, ptrs *[8]*float32, nq int, slab *float32, dim, blocks, n int)
