package vector

import "fmt"

// The projection kernel: many dot products against one query, the loop
// p-stable hashing is made of. The rows are laid out so that lanes are
// rows: PackRows4 transposes them into float64 blocks of four rows,
// [dim][4], and block b of a slab is slab[4·dim·b : 4·dim·(b+1)]. Row
// 4b+l, dimension j sits at slab[4·dim·b + 4j + l]; a partial last block
// is padded with zero rows.
//
// Each lane computes exactly Dense.Dot of its row: from +0, dimension by
// dimension in order, a separately rounded multiply and then add. On
// amd64 with AVX2 one YMM register holds a block's four sums
// (dotrows_amd64.s: VBROADCASTSD of q[j], VMULPD, VADDPD, two blocks in
// flight, no FMA); everywhere else the portable loop below keeps four
// scalar sums. Both perform the same IEEE operations on the same operands
// in the same order, so which one ran is not observable in a key.

// PackRows4 returns rows as the slab DotRows4 reads. Every row must have
// the length of rows[0]; it panics otherwise.
func PackRows4(rows []Dense) []float64 {
	if len(rows) == 0 {
		return nil
	}
	dim := len(rows[0])
	slab := make([]float64, (len(rows)+3)/4*4*dim)
	for i, row := range rows {
		if len(row) != dim {
			panic(fmt.Sprintf("vector: PackRows4 row %d has dim %d, want %d", i, len(row), dim))
		}
		blk := slab[i/4*4*dim:]
		for j, v := range row {
			blk[4*j+i%4] = float64(v)
		}
	}
	return slab
}

// DotRows4 sets out[i] to the dot product of q with row i of slab, for
// every row including the padding ones, bit-identical to Dense.Dot of the
// row (a NaN result may carry another NaN payload, which Go leaves
// unspecified). It panics unless len(out) is a multiple of 4 and slab
// holds len(out) rows of len(q) values.
func DotRows4(out []float64, q Dense, slab []float64) {
	if len(out)%4 != 0 || len(slab) != len(out)*len(q) {
		panic(fmt.Sprintf("vector: DotRows4 slab of %d values is not %d rows of dim %d", len(slab), len(out), len(q)))
	}
	if len(out) > 0 {
		dotRows4(out, q, slab)
	}
}

// dotRows4Portable is DotRows4 in plain Go: the path of every CPU without
// AVX2. float64(x*a[l]) rounds each product before the add (see the
// package comment).
func dotRows4Portable(out []float64, q Dense, slab []float64) {
	for len(out) >= 4 {
		blk := slab[:4*len(q)]
		slab = slab[len(blk):]
		var s0, s1, s2, s3 float64
		for _, v := range q {
			x, a := float64(v), blk[:4:4]
			blk = blk[4:]
			s0 += float64(x * a[0])
			s1 += float64(x * a[1])
			s2 += float64(x * a[2])
			s3 += float64(x * a[3])
		}
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		out = out[4:]
	}
}
