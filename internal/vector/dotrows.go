package vector

import "fmt"

// The projection kernels: many dot products against one query, the loop
// p-stable hashing is made of. Keys are defined by Dense.Dot: from +0,
// dimension by dimension, a rounded float64 multiply (exact for float32
// operands) then a rounded add.
//
// DotRows4 and DotRows4Batch compute that reference over PackRows4's
// float64 blocks of four rows, [dim][4]: on amd64 with AVX2 a YMM
// register holds a block's four sums (VMULPD then VADDPD, no FMA),
// elsewhere four scalar sums, Dot's operations in Dot's order either way.
//
// DotRows8Batch is the screen: the same sums in float32 over PackRows8's
// blocks of eight rows, [dim][8], eight queries per pass as one FMA chain
// each on amd64, a portable float32 loop elsewhere. Its values are not
// keys; DotRows8Error gives the bound a caller screens them with:
//
//	|DotRows8Batch − Dot| ≤ rel·Σ|aⱼpⱼ| + abs,
//	rel = γ(d+2, 2⁻²⁴) + γ(d+1, 2⁻⁵³),  abs = (d+16)·2⁻¹⁴⁹
//
// with γ(n, u) = n·u/(1−n·u): at most d+2 float32 roundings per term (d+1
// fused), Dot's d, and half a subnormal per float32 rounding.

// PackRows4 returns rows as the slab DotRows4 reads. Every row must have
// the length of rows[0]; it panics otherwise.
func PackRows4(rows []Dense) []float64 { return packRows[float64](rows, 4) }

// packRows lays rows out in blocks of width rows, [dim][width], the last
// block padded with zero rows.
func packRows[T float32 | float64](rows []Dense, width int) []T {
	if len(rows) == 0 {
		return nil
	}
	dim := len(rows[0])
	slab := make([]T, (len(rows)+width-1)/width*width*dim)
	for i, row := range rows {
		if len(row) != dim {
			panic(fmt.Sprintf("vector: PackRows%d row %d has dim %d, want %d", width, i, len(row), dim))
		}
		blk := slab[i/width*width*dim:]
		for j, v := range row {
			blk[width*j+i%width] = T(v)
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

// DotRows4Batch is DotRows4 for every query of qs: with n =
// len(out)/len(qs), it sets out[p·n+i] to the dot product of qs[p] with
// row i of slab, bit-identical to DotRows4(out[p·n:(p+1)·n], qs[p],
// slab). It panics unless len(out) is len(qs)·n for a multiple n of 4
// and slab holds n rows of the length every query has.
func DotRows4Batch(out []float64, qs []Dense, slab []float64) {
	n := batchRows("DotRows4Batch", out, qs, len(slab), 4)
	for p, q := range qs {
		dotRows4(out[p*n:(p+1)*n], q, slab)
	}
}

// batchRows returns the rows per query of a batch kernel's call, n =
// len(out)/len(qs), after checking the shapes its doc promises to panic
// on: n a multiple of block, slab n rows of every query's length.
func batchRows(name string, out []float64, qs []Dense, slab, block int) int {
	if len(qs) == 0 {
		if len(out) != 0 {
			panic(fmt.Sprintf("vector: %s of no queries into %d values", name, len(out)))
		}
		return 0
	}
	n, dim := len(out)/len(qs), len(qs[0])
	if n%block != 0 || len(out) != n*len(qs) || slab != n*dim {
		panic(fmt.Sprintf("vector: %s of %d queries into %d values over a slab of %d values at dim %d", name, len(qs), len(out), slab, dim))
	}
	for p, q := range qs {
		if len(q) != dim {
			panic(fmt.Sprintf("vector: %s query %d has dim %d, want %d", name, p, len(q), dim))
		}
	}
	return n
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

// HaveFMA reports whether DotRows8Batch runs as FMA assembly; elsewhere
// it is portable Go, no faster than the float64 reference.
func HaveFMA() bool { return haveFMA }

// PackRows8 returns rows as the float32 slab DotRows8Batch reads: blocks
// of eight rows, [dim][8]. Every row must have the length of rows[0]; it
// panics otherwise.
func PackRows8(rows []Dense) []float32 { return packRows[float32](rows, 8) }

// DotRows8Batch sets out[p·n+i], with n = len(out)/len(qs), to the
// float32 screen value of the dot product of qs[p] with row i of slab,
// widened to float64: within DotRows8Error of Dense.Dot, not equal to
// it. It panics unless n is a multiple of 8 and slab holds n rows of the
// length every query has.
func DotRows8Batch(out []float64, qs []Dense, slab []float32) {
	if batchRows("DotRows8Batch", out, qs, len(slab), 8) > 0 {
		dotRows8Batch(out, qs, slab)
	}
}

// DotRows8Error returns rel and abs of the screen's bound at dimension
// dim (see the top of this file).
func DotRows8Error(dim int) (rel, abs float64) {
	return gamma(dim+2, 0x1p-24) + gamma(dim+1, 0x1p-53), float64(float64(dim+16) * 0x1p-149)
}

// dotRows8Portable is DotRows8Batch in plain Go.
func dotRows8Portable(out []float64, qs []Dense, slab []float32) {
	n := len(out) / len(qs)
	for p, q := range qs {
		o := out[p*n : (p+1)*n]
		for b := 0; b < n/8; b++ {
			blk := slab[b*8*len(q) : (b+1)*8*len(q)]
			var s [8]float32
			for j, v := range q {
				a := blk[8*j : 8*j+8 : 8*j+8]
				for l := range s {
					s[l] += v * a[l]
				}
			}
			for l, v := range s {
				o[8*b+l] = float64(v)
			}
		}
	}
}
