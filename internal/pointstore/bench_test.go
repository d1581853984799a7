package pointstore

// Store-level microbenchmarks: the verification pipeline over one
// candidate list, per storage arm. CI runs these with `go test -bench
// Kernel` and archives the output alongside the vector kernels.

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/vector"
)

// benchArm pins one verification workload: 1024 random dim-32 points,
// a 512-candidate list, and a radius that keeps ~10% of them.
func benchArm(b *testing.B, verify func(q vector.Dense, ids []int32, out []int32) []int32) {
	b.Helper()
	pts := randDense(1024, 32, 42)
	q := pts[0]
	ids := make([]int32, 512)
	for i := range ids {
		ids[i] = int32(i * 2)
	}
	b.ResetTimer()
	out := make([]int32, 0, 512)
	for i := 0; i < b.N; i++ {
		out = verify(q, ids, out[:0])
	}
	_ = out
}

func BenchmarkKernelVerifyRadius(b *testing.B) {
	pts := randDense(1024, 32, 42)
	// The radius that keeps roughly 10% of the points.
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(vector.L2Sq(pts[0], p))
	}
	r := quantile(ds, 0.10)

	rows := make([]vector.Dense, len(pts))
	for i, p := range pts {
		rows[i] = append(vector.Dense(nil), p...)
	}
	flat, err := NewFlatL2(pts, ModeOff)
	if err != nil {
		b.Fatal(err)
	}
	quant, err := NewFlatL2(pts, ModeSQ8)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("rows-sqrt", func(b *testing.B) {
		benchArm(b, func(q vector.Dense, ids, out []int32) []int32 {
			for _, id := range ids {
				var s float64
				p := rows[id]
				for j := range p {
					d := float64(q[j]) - float64(p[j])
					s += d * d
				}
				if math.Sqrt(s) <= r {
					out = append(out, id)
				}
			}
			return out
		})
	})
	// flat-reference is the float64 decision l2Sq ≤ r² row by row, what
	// the screened flat arm must reproduce; band/row is the share of
	// candidates the screen left to it.
	b.Run("flat-reference", func(b *testing.B) {
		benchArm(b, func(q vector.Dense, ids, out []int32) []int32 {
			for _, id := range ids {
				if vector.L2Sq(q, flat.flat[int(id)*flat.dim:int(id+1)*flat.dim]) <= r*r {
					out = append(out, id)
				}
			}
			return out
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/row")
	})
	b.Run("flat", func(b *testing.B) {
		benchArm(b, func(q vector.Dense, ids, out []int32) []int32 {
			return flat.VerifyRadius(q, ids, r, out)
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/row")
		ids := make([]int32, 512)
		for i := range ids {
			ids[i] = int32(i * 2)
		}
		b.ReportMetric(vector.WithinBandShare(pts[0], flat.flat, flat.n, ids, r*r), "band/row")
	})
	b.Run("sq8", func(b *testing.B) {
		benchArm(b, func(q vector.Dense, ids, out []int32) []int32 {
			return quant.VerifyRadius(q, ids, r, out)
		})
	})
}

func BenchmarkKernelScanRadius(b *testing.B) {
	pts := randDense(4096, 32, 43)
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = math.Sqrt(vector.L2Sq(pts[0], p))
	}
	r := quantile(ds, 0.05)
	for _, mode := range []Mode{ModeOff, ModeSQ8} {
		st, err := NewFlatL2(pts, mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			out := make([]int32, 0, 512)
			for i := 0; i < b.N; i++ {
				out = st.ScanRadius(pts[0], r, out[:0])
			}
			_ = out
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/row")
			if mode == ModeOff {
				all := make([]int32, st.n)
				for i := range all {
					all[i] = int32(i)
				}
				b.ReportMetric(vector.WithinBandShare(pts[0], st.flat, st.n, all, r*r), "band/row")
			}
		})
	}
	// The float64 reference decision over every row, for comparison.
	flat := slices.Concat(pts...)
	b.Run("reference", func(b *testing.B) {
		out := make([]int32, 0, 512)
		for i := 0; i < b.N; i++ {
			out = out[:0]
			for j := range pts {
				if vector.L2Sq(pts[0], flat[j*32:j*32+32]) <= r*r {
					out = append(out, int32(j))
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/row")
	})
}

// hammingShapes are the binary stores the Hamming benchmarks run on: the
// served shape — 30 000 MNIST-like 64-bit fingerprints at r = 16, what one
// shard of the load benchmark's mnist-collide holds — and 1 024 random
// 256- and 784-bit codes at radii no row can fail early at (256 bits is
// one 4-word block; r = 784 passes everything).
var hammingShapes = sync.OnceValue(func() []hammingShape {
	return []hammingShape{
		{"64bit-30000", dataset.MNISTLike(0.5, 1).Points, 16, 8000},
		{"256bit-1024", randBinary(1024, 256, 44), 110, 512},
		{"784bit-1024", randBinary(1024, 784, 46), 784, 512},
	}
})

type hammingShape struct {
	name  string
	pts   []vector.Binary
	r     float64
	cands int
}

// BenchmarkKernelHammingVerify times FlatBinary.VerifyRadius over a
// random candidate list; ns/row is the per-candidate cost the load
// benchmark reports as pointstore.verify_ns_per_cand.
func BenchmarkKernelHammingVerify(b *testing.B) {
	for _, sh := range hammingShapes() {
		flat, err := NewFlatBinary(sh.pts)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(45)
		ids := make([]int32, sh.cands)
		for i := range ids {
			ids[i] = int32(r.Intn(len(sh.pts)))
		}
		b.Run(sh.name, func(b *testing.B) {
			out := make([]int32, 0, len(ids))
			for i := 0; i < b.N; i++ {
				out = flat.VerifyRadius(sh.pts[0], ids, sh.r, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/row")
		})
	}
}

// BenchmarkKernelHammingScan times FlatBinary.ScanRadius, the LINEAR arm
// (pointstore.scan_ns_per_point), on the same stores.
func BenchmarkKernelHammingScan(b *testing.B) {
	for _, sh := range hammingShapes() {
		flat, err := NewFlatBinary(sh.pts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
			out := make([]int32, 0, len(sh.pts))
			for i := 0; i < b.N; i++ {
				out = flat.ScanRadius(sh.pts[0], sh.r, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.pts)), "ns/row")
		})
	}
}

// quantile returns the f-quantile of a copy of values.
func quantile(values []float64, f float64) float64 {
	s := append([]float64(nil), values...)
	slices.Sort(s)
	return s[int(f*float64(len(s)-1))]
}
