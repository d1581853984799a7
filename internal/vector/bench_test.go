package vector

// Kernel microbenchmarks for the distance hot paths: the unrolled
// kernels against the scalar loops they replaced, and the within-radius
// batch kernels, portable against assembly. CI runs these with
// `go test -bench Kernel` and archives the output, so regressions in
// the raw kernels are visible per commit.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// scalarL2Sq is the pre-refactor kernel: a scalar loop with a float64
// widen per element, kept as the benchmark baseline.
func scalarL2Sq(a, b Dense) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func benchDense(dim int, seed uint64) (Dense, Dense) {
	r := rng.New(seed)
	x, y := make(Dense, dim), make(Dense, dim)
	for i := range x {
		x[i], y[i] = float32(r.Normal()), float32(r.Normal())
	}
	return x, y
}

func BenchmarkKernelL2Sq(b *testing.B) {
	for _, dim := range []int{8, 32, 128} {
		x, y := benchDense(dim, uint64(dim))
		b.Run(fmt.Sprintf("scalar-%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += scalarL2Sq(x, y)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("unrolled-%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += L2Sq(x, y)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("sqrt-%d", dim), func(b *testing.B) {
			// The full pre-refactor candidate check: scalar loop + sqrt.
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += math.Sqrt(scalarL2Sq(x, y))
			}
			_ = sink
		})
	}
}

func BenchmarkKernelDot(b *testing.B) {
	for _, dim := range []int{32, 128} {
		x, y := benchDense(dim, uint64(dim))
		b.Run(fmt.Sprintf("dim-%d", dim), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += x.Dot(y)
			}
			_ = sink
		})
	}
}

// BenchmarkKernelL2SqWithin times the within-radius batch kernels the
// flat store verifies and scans with: the portable float64 reference
// beside whatever the dispatcher picks on this CPU (the float32 FMA
// screen on amd64), over 1024 rows at a radius that keeps about a tenth
// of them. ns/row is the per-candidate cost the benchmark's
// pointstore.*_ns_per_* metrics see; band/row is the share of rows the
// screen left to the reference.
func BenchmarkKernelL2SqWithin(b *testing.B) {
	const n = 1024
	dispatched := "dispatch"
	if haveFMA {
		dispatched = "screen"
	}
	for _, dim := range []int{8, 32, 128} {
		r := rng.New(uint64(dim))
		flat := make([]float32, n*dim)
		for i := range flat {
			flat[i] = float32(r.Normal())
		}
		q, _ := benchDense(dim, 4)
		ids := make([]int32, n)
		ds := make([]float64, n)
		for i, p := range r.Perm(n) {
			ids[i] = int32(p)
			ds[i] = l2SqRaw(q, flat[i*dim:(i+1)*dim])
		}
		slices.Sort(ds)
		r2 := ds[n/10]
		out := make([]int32, 0, n)
		run := func(name string, band float64, f func()) {
			b.Run(fmt.Sprintf("%s-%d", name, dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
				b.ReportMetric(band, "band/row")
			})
		}
		run("ids-portable", 0, func() { out = l2SqWithinPortable(out[:0], q, flat, n, ids, r2) })
		run("ids-"+dispatched, WithinBandShare(q, flat, n, ids, r2), func() { out = L2SqWithin(out[:0], q, flat, n, ids, r2) })
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		run("all-portable", 0, func() { out = l2SqWithinPortable(out[:0], q, flat, n, all, r2) })
		run("all-"+dispatched, WithinBandShare(q, flat, n, all, r2), func() { out = L2SqWithinAll(out[:0], q, flat, n, r2) })
	}
}

func BenchmarkKernelHammingWords(b *testing.B) {
	for _, bits := range []int{64, 256} {
		r := rng.New(uint64(bits))
		words := (bits + 63) / 64
		x, y := make([]uint64, words), make([]uint64, words)
		for i := range x {
			x[i], y[i] = r.Uint64(), r.Uint64()
		}
		b.Run(fmt.Sprintf("bits-%d", bits), func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += HammingWords(x, y)
			}
			_ = sink
		})
	}
}
