package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// DotRows4 is held to the code it replaced: Dense.Dot of each row, one
// row at a time. Both the dispatching entry point (the AVX2 kernel where
// the CPU has it) and the portable loop must return the reference's
// float64 bit for bit; a NaN matches any NaN, since Go leaves the payload
// of a NaN produced from two NaN operands unspecified and no key can
// depend on it (math.Floor of a NaN is NaN).

// dotRowsDims are the widths the kernel is checked at: every residue
// mod 4 around 0, 32 and 128, an odd width past 256 and MNIST's 784.
var dotRowsDims = []int{1, 2, 3, 4, 5, 31, 32, 33, 127, 128, 129, 257, 784}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkDotRows4 packs rows, runs both kernels over a copy of the slab at
// an odd offset and compares every lane with the reference, the padding
// lanes with the dot product of a zero row.
func checkDotRows4(t *testing.T, q Dense, rows []Dense) {
	t.Helper()
	packed := PackRows4(rows)
	slab := make([]float64, 1+len(packed))[1:] // 8- but not 32-byte aligned
	copy(slab, packed)
	n := (len(rows) + 3) &^ 3
	got := make([]float64, n)
	DotRows4(got, q, slab)
	port := make([]float64, n)
	dotRows4Portable(port, q, slab)
	zero := make(Dense, len(q))
	for i := range n {
		ref := zero.Dot(q)
		if i < len(rows) {
			ref = rows[i].Dot(q)
		}
		if !sameFloat(got[i], ref) || !sameFloat(port[i], ref) {
			t.Fatalf("dim %d, %d rows, row %d: DotRows4 %v (%#x), portable %v (%#x), Dot %v (%#x)",
				len(q), len(rows), i, got[i], math.Float64bits(got[i]), port[i], math.Float64bits(port[i]), ref, math.Float64bits(ref))
		}
	}
}

// randRows draws q and k rows of dim values at odd offsets of their
// backings; with special set, awkward values (NaN, ±Inf, −0.0, float32
// denormals and extremes) are sprinkled into q and the rows.
func randRows(r *rng.Rand, dim, k int, special bool) (Dense, []Dense) {
	draw := func() Dense {
		v := make(Dense, 1+dim)[1:]
		for j := range v {
			v[j] = float32(r.Normal())
		}
		if special {
			for range 1 + dim/8 {
				v[r.Intn(dim)] = awkward[r.Intn(len(awkward))]
			}
		}
		return v
	}
	q := draw()
	rows := make([]Dense, k)
	for i := range rows {
		rows[i] = draw()
	}
	return q, rows
}

func TestDotRows4MatchesDot(t *testing.T) {
	r := rng.New(26)
	for _, dim := range dotRowsDims {
		for k := 1; k <= 20; k++ { // 1–5 blocks, every partial last block
			for _, special := range []bool{false, true} {
				q, rows := randRows(r, dim, k, special)
				checkDotRows4(t, q, rows)
			}
		}
	}
}

// TestDotRows4QueryValues puts each awkward value into q alone, at the
// first, a middle and the last dimension: a NaN or infinity must reach
// exactly the lanes Dot says it reaches, a −0.0 or denormal must round
// as Dot rounds it.
func TestDotRows4QueryValues(t *testing.T) {
	r := rng.New(27)
	for _, dim := range []int{1, 5, 33, 128} {
		q, rows := randRows(r, dim, 7, false)
		rows[3][dim/2] = 0 // Inf·0 is NaN in this lane only
		for _, v := range awkward {
			for _, at := range []int{0, dim / 2, dim - 1} {
				qv := q.Clone()
				qv[at] = v
				checkDotRows4(t, qv, rows)
			}
		}
	}
}

func TestDotRows4Panics(t *testing.T) {
	q, rows := randRows(rng.New(28), 6, 5, false)
	slab := PackRows4(rows)
	mustPanic(t, "short q", func() { DotRows4(make([]float64, 8), q[:5], slab) })
	mustPanic(t, "long q", func() { DotRows4(make([]float64, 8), append(q.Clone(), 1), slab) })
	mustPanic(t, "out not whole blocks", func() { DotRows4(make([]float64, 5), q, slab[:30]) })
	mustPanic(t, "out of the wrong length", func() { DotRows4(make([]float64, 4), q, slab) })
	mustPanic(t, "ragged rows", func() { PackRows4([]Dense{rows[0], rows[1][:5]}) })
	DotRows4(nil, q, nil) // no rows: nothing to do
	if PackRows4(nil) != nil {
		t.Fatal("PackRows4(nil) is not nil")
	}
}

// FuzzDotRows4 decodes a dimension (1…130) and a row count (1…20) from
// the first two bytes and raw float32 bits from the rest — q first, then
// the rows, zeros where the input runs out — so NaNs, infinities, signed
// zeros and denormals are each one byte flip away.
func FuzzDotRows4(f *testing.F) {
	seed := func(dim, k byte, vals ...float32) {
		b := []byte{dim - 1, k - 1}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b)
	}
	seed(1, 1, 0.5, 2)
	seed(3, 5, 1, 2, 3, 4, 5, 6, -7, 8, 9)
	seed(5, 9, append(awkward, awkward...)...)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, k := 1, 1
		if len(data) >= 2 {
			dim, k, data = 1+int(data[0])%130, 1+int(data[1])%20, data[2:]
		}
		next := func() float32 {
			if len(data) < 4 {
				return 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return v
		}
		vecs := make([]Dense, 1+k)
		for i := range vecs {
			vecs[i] = make(Dense, dim)
			for j := range vecs[i] {
				vecs[i][j] = next()
			}
		}
		checkDotRows4(t, vecs[0], vecs[1:])
	})
}

// checkDotRows4Batch packs rows and runs DotRows4Batch and its portable
// loop for the queries qs, each at an odd offset of its own backing,
// comparing every lane with the per-row Dot reference.
func checkDotRows4Batch(t *testing.T, qs []Dense, rows []Dense) {
	t.Helper()
	slab := PackRows4(rows)
	n := (len(rows) + 3) &^ 3
	got := make([]float64, len(qs)*n)
	DotRows4Batch(got, qs, slab)
	port := make([]float64, len(qs)*n)
	dotRows4BatchPortable(port, qs, slab)
	zero := make(Dense, len(qs[0]))
	for p, q := range qs {
		for i := range n {
			ref := zero.Dot(q)
			if i < len(rows) {
				ref = rows[i].Dot(q)
			}
			if g, o := got[p*n+i], port[p*n+i]; !sameFloat(g, ref) || !sameFloat(o, ref) {
				t.Fatalf("dim %d, %d queries, %d rows, query %d row %d: DotRows4Batch %v (%#x), portable %v (%#x), Dot %v (%#x)",
					len(q), len(qs), len(rows), p, i, g, math.Float64bits(g), o, math.Float64bits(o), ref, math.Float64bits(ref))
			}
		}
	}
}

// TestDotRows4BatchMatchesDot covers 1–9 queries (every partial group of
// four, and the AVX2 kernel's odd last block) against 1–20 rows.
func TestDotRows4BatchMatchesDot(t *testing.T) {
	r := rng.New(32)
	for _, dim := range dotRowsDims {
		for k := 1; k <= 20; k++ {
			for nq := 1; nq <= 9; nq++ {
				special := (k+nq)%2 == 0
				_, rows := randRows(r, dim, k, special)
				_, qs := randRows(r, dim, nq, special)
				checkDotRows4Batch(t, qs, rows)
			}
		}
	}
}

// TestDotRows4BatchQueryValues puts each awkward value into one query of
// five alone, at the first, a middle and the last dimension.
func TestDotRows4BatchQueryValues(t *testing.T) {
	r := rng.New(33)
	for _, dim := range []int{1, 5, 33, 128} {
		_, rows := randRows(r, dim, 7, false)
		rows[3][dim/2] = 0 // Inf·0 is NaN in this lane only
		_, qs := randRows(r, dim, 5, false)
		for _, v := range awkward {
			for _, at := range []int{0, dim / 2, dim - 1} {
				for p := range qs {
					qv := slices.Clone(qs)
					qv[p] = qv[p].Clone()
					qv[p][at] = v
					checkDotRows4Batch(t, qv, rows)
				}
			}
		}
	}
}

func TestDotRows4BatchPanics(t *testing.T) {
	_, rows := randRows(rng.New(34), 6, 5, false)
	_, qs := randRows(rng.New(35), 6, 3, false)
	slab := PackRows4(rows)
	mustPanic(t, "short query", func() { DotRows4Batch(make([]float64, 24), []Dense{qs[0], qs[1][:5], qs[2]}, slab) })
	mustPanic(t, "out not whole blocks", func() { DotRows4Batch(make([]float64, 15), qs, slab) })
	mustPanic(t, "out of the wrong length", func() { DotRows4Batch(make([]float64, 12), qs, slab) })
	mustPanic(t, "values for no queries", func() { DotRows4Batch(make([]float64, 8), nil, slab) })
	DotRows4Batch(nil, nil, slab) // no queries: nothing to do
}

// FuzzDotRowsBatch decodes a dimension (1…130), a row count (1…20) and
// a query count (1…9) from the first three bytes and raw float32 bits
// from the rest — the queries first, then the rows, zeros where the input
// runs out.
func FuzzDotRowsBatch(f *testing.F) {
	seed := func(dim, k, nq byte, vals ...float32) {
		b := []byte{dim - 1, k - 1, nq - 1}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b)
	}
	seed(1, 1, 1, 0.5, 2)
	seed(3, 5, 5, 1, 2, 3, 4, 5, 6, -7, 8, 9)
	seed(5, 9, 7, append(awkward, awkward...)...)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, k, nq := 1, 1, 1
		if len(data) >= 3 {
			dim, k, nq, data = 1+int(data[0])%130, 1+int(data[1])%20, 1+int(data[2])%9, data[3:]
		}
		next := func() float32 {
			if len(data) < 4 {
				return 0
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(data))
			data = data[4:]
			return v
		}
		vecs := make([]Dense, nq+k)
		for i := range vecs {
			vecs[i] = make(Dense, dim)
			for j := range vecs[i] {
				vecs[i][j] = next()
			}
		}
		checkDotRows4Batch(t, vecs[:nq], vecs[nq:])
	})
}

// BenchmarkKernelDotRows4 times the 350 projections one dense128-batch
// query costs per shard (L = 50 tables of k = 7) four ways: the per-row
// Dense.Dot the hashers used to call, DotRows4's portable loop and its
// dispatched kernel over 50 slabs of 7 rows (one per table, what
// PStableHasher holds), and the dispatched kernel over one 350-row slab
// (the whole-table layout a cross-table slab would give).
func BenchmarkKernelDotRows4(b *testing.B) {
	const L, k = 50, 7
	dispatched := "dispatch"
	if haveAVX2 {
		dispatched = "avx2"
	}
	for _, dim := range []int{32, 128} {
		q, rows := randRows(rng.New(uint64(dim)), dim, L*k, false)
		slabs := make([][]float64, L)
		for j := range slabs {
			slabs[j] = PackRows4(rows[j*k : (j+1)*k])
		}
		whole := PackRows4(rows)
		out := make([]float64, L*k+3)
		run := func(name string, f func()) {
			b.Run(fmt.Sprintf("%s-%d", name, dim), func(b *testing.B) {
				for b.Loop() {
					f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
			})
		}
		run("dot", func() {
			for i, row := range rows {
				out[i] = row.Dot(q)
			}
		})
		run("portable", func() {
			for _, s := range slabs {
				dotRows4Portable(out[:8], q, s)
			}
		})
		run(dispatched, func() {
			for _, s := range slabs {
				DotRows4(out[:8], q, s)
			}
		})
		run(dispatched+"-onepass", func() { DotRows4(out[:len(whole)/dim], q, whole) })
	}
}

// BenchmarkKernelDotRows4Batch times one table's projections (k = 7
// rows) for a block of 4 096 points, the shape lsh.Build hashes in: a
// DotRows4 call per point against one DotRows4Batch call, on the
// dispatched kernel and on the portable loop; ns/point.
func BenchmarkKernelDotRows4Batch(b *testing.B) {
	const k, points = 7, 4096
	dispatched := "dispatch"
	if haveAVX2 {
		dispatched = "avx2"
	}
	for _, dim := range []int{32, 128} {
		_, rows := randRows(rng.New(uint64(dim)), dim, k, false)
		_, qs := randRows(rng.New(uint64(dim)+1), dim, points, false)
		slab := PackRows4(rows)
		out := make([]float64, 8*points)
		run := func(name string, f func()) {
			b.Run(fmt.Sprintf("%s-%d", name, dim), func(b *testing.B) {
				for b.Loop() {
					f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/points, "ns/point")
			})
		}
		run("portable-perpoint", func() {
			for p, q := range qs {
				dotRows4Portable(out[8*p:8*p+8], q, slab)
			}
		})
		run("portable-batch", func() { dotRows4BatchPortable(out, qs, slab) })
		run(dispatched+"-perpoint", func() {
			for p, q := range qs {
				DotRows4(out[8*p:8*p+8], q, slab)
			}
		})
		run(dispatched+"-batch", func() { DotRows4Batch(out, qs, slab) })
	}
}
