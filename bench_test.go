package hybridlsh

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

// benchScale returns the dataset scale for the experiment benchmarks.
// Default 0.05 keeps `go test -bench=.` laptop-sized; set
// REPRO_BENCH_SCALE=1.0 for paper-scale runs.
func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

// benchFig2 runs one Figure-2 panel as sub-benchmarks: per radius, per
// strategy, the per-query time. The recall of the strategy over the first
// pass is attached as a custom metric.
func benchFig2[P any](b *testing.B, data, queries []P, radii []float64,
	build func(r float64) (*core.Index[P], error)) {
	b.Helper()
	for _, r := range radii {
		ix, err := build(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range []struct {
			name string
			run  func(q P) ([]int32, core.QueryStats)
		}{
			{"hybrid", ix.Query},
			{"lsh", ix.QueryLSH},
			{"linear", ix.QueryLinear},
		} {
			b.Run(fmt.Sprintf("r=%v/%s", r, strat.name), func(b *testing.B) {
				linCalls := 0
				for i := 0; i < b.N; i++ {
					_, stats := strat.run(queries[i%len(queries)])
					if stats.Strategy == core.StrategyLinear {
						linCalls++
					}
				}
				b.ReportMetric(100*float64(linCalls)/float64(b.N), "LS%")
			})
		}
	}
}

// BenchmarkFigure2a_MNIST regenerates Figure 2a: Hamming distance on
// 64-bit fingerprints, radii 12–17.
func BenchmarkFigure2a_MNIST(b *testing.B) {
	ds := dataset.MNISTLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	cost := core.Calibrate(data, pointstore.GenericBuilder(distance.Hamming), 20, 2000, 3)
	benchFig2(b, data, queries, ds.Meta.PaperRadii, func(r float64) (*core.Index[vector.Binary], error) {
		return core.NewIndex(data, core.Config[vector.Binary]{
			Family:   lsh.NewBitSampling(dataset.MNISTBits),
			Distance: distance.Hamming,
			Radius:   r,
			Cost:     cost,
			Seed:     4,
		})
	})
}

// BenchmarkFigure2b_Webspam regenerates Figure 2b: cosine distance,
// radii 0.05–0.10.
func BenchmarkFigure2b_Webspam(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	cost := core.Calibrate(data, pointstore.GenericBuilder(distance.Cosine), 20, 2000, 3)
	benchFig2(b, data, queries, ds.Meta.PaperRadii, func(r float64) (*core.Index[vector.Sparse], error) {
		return core.NewIndex(data, core.Config[vector.Sparse]{
			Family:   lsh.NewSimHashCosine(dataset.WebspamDim),
			Distance: distance.Cosine,
			Radius:   r,
			Cost:     cost,
			Seed:     4,
		})
	})
}

// BenchmarkFigure2c_CoverType regenerates Figure 2c: L1 distance, radii
// 3000–4000, the paper's k = 8, w = 4r. CoverType is the paper's largest
// dataset; its benchmark scale is a tenth of the others'.
func BenchmarkFigure2c_CoverType(b *testing.B) {
	ds := dataset.CoverTypeLike(benchScale()/10, 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	cost := core.Calibrate(data, pointstore.GenericBuilder(distance.L1), 20, 2000, 3)
	benchFig2(b, data, queries, ds.Meta.PaperRadii, func(r float64) (*core.Index[vector.Dense], error) {
		return core.NewIndex(data, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL1(dataset.CoverTypeDim, 4*r),
			Distance: distance.L1,
			Radius:   r,
			K:        8,
			Cost:     cost,
			Seed:     4,
		})
	})
}

// BenchmarkFigure2d_Corel regenerates Figure 2d: L2 distance, radii
// 0.35–0.60, the paper's k = 7, w = 2r.
func BenchmarkFigure2d_Corel(b *testing.B) {
	ds := dataset.CorelLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	cost := core.Calibrate(data, pointstore.GenericBuilder(distance.L2), 20, 2000, 3)
	benchFig2(b, data, queries, ds.Meta.PaperRadii, func(r float64) (*core.Index[vector.Dense], error) {
		return core.NewIndex(data, core.Config[vector.Dense]{
			Family:   lsh.NewPStableL2(dataset.CorelDim, 2*r),
			Distance: distance.L2,
			Radius:   r,
			K:        7,
			Cost:     cost,
			Seed:     4,
		})
	})
}

// BenchmarkTable1_HLLOverhead regenerates Table 1's "% Cost" row: the time
// of the full O(m·L) candSize estimation (bucket lookup + HLL merge)
// relative to a hybrid query, per dataset.
func BenchmarkTable1_HLLOverhead(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	ix, err := core.NewIndex(data, core.Config[vector.Sparse]{
		Family:   lsh.NewSimHashCosine(dataset.WebspamDim),
		Distance: distance.Cosine,
		Radius:   0.05,
		Seed:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.EstimateCandSize(queries[i%len(queries)])
		}
	})
	b.Run("full-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Query(queries[i%len(queries)])
		}
	})
}

// BenchmarkTable1_HLLError regenerates Table 1's "% Error" row: it runs the
// estimator against the exact distinct-candidate count and reports the mean
// relative error as a custom metric.
func BenchmarkTable1_HLLError(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	ix, err := core.NewIndex(data, core.Config[vector.Sparse]{
		Family:   lsh.NewSimHashCosine(dataset.WebspamDim),
		Distance: distance.Cosine,
		Radius:   0.05,
		Seed:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	var errSum float64
	var samples int
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_, est, _ := ix.EstimateCandSize(q)
		_, stats := ix.QueryLSH(q)
		if stats.Candidates > 0 {
			errSum += math.Abs(est-float64(stats.Candidates)) / float64(stats.Candidates)
			samples++
		}
	}
	if samples > 0 {
		b.ReportMetric(100*errSum/float64(samples), "errPct")
	}
}

// BenchmarkAblationHLLRegisters sweeps the register count m (the paper
// fixes m = 128 and notes m = 32 suffices for MNIST): merge+estimate time
// and estimate error per m.
func BenchmarkAblationHLLRegisters(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 50, 2)
	for _, m := range []int{16, 32, 64, 128, 256} {
		ix, err := core.NewIndex(data, core.Config[vector.Sparse]{
			Family:       lsh.NewSimHashCosine(dataset.WebspamDim),
			Distance:     distance.Cosine,
			Radius:       0.07,
			HLLRegisters: m,
			Seed:         4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			// Accuracy, measured outside the timed loop: one estimate vs
			// exact distinct-candidate count per query.
			var errSum float64
			var samples int
			for _, q := range queries {
				_, est, _ := ix.EstimateCandSize(q)
				_, stats := ix.QueryLSH(q)
				if stats.Candidates > 0 {
					errSum += math.Abs(est-float64(stats.Candidates)) / float64(stats.Candidates)
					samples++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.EstimateCandSize(queries[i%len(queries)])
			}
			b.StopTimer()
			if samples > 0 {
				b.ReportMetric(100*errSum/float64(samples), "errPct")
			}
		})
	}
}

// BenchmarkAblationOracle compares the HLL-based strategy decision against
// an oracle that knows the exact candidate count: the agreement rate is
// reported as a custom metric (the decision quality Table 1's accuracy
// buys).
func BenchmarkAblationOracle(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 50, 2)
	cost := core.CostModel{Alpha: 1, Beta: 10} // the paper's Webspam ratio
	ix, err := core.NewIndex(data, core.Config[vector.Sparse]{
		Family:   lsh.NewSimHashCosine(dataset.WebspamDim),
		Distance: distance.Cosine,
		Radius:   0.08,
		Cost:     cost,
		Seed:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	agree, total := 0, 0
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		got, stats := ix.DecideStrategy(q)
		_, lshStats := ix.QueryLSH(q)
		oracle := core.StrategyLinear
		if cost.LSHCost(stats.Collisions, float64(lshStats.Candidates)) < cost.LinearCost(len(data)) {
			oracle = core.StrategyLSH
		}
		if got == oracle {
			agree++
		}
		total++
	}
	if total > 0 {
		b.ReportMetric(100*float64(agree)/float64(total), "agree%")
	}
}

// BenchmarkFigure3_OutputSize regenerates Figure 3's two series on the
// Webspam-like workload with the paper's β/α = 10: per radius, the mean
// query time plus avg/max output size and the linear-search call
// percentage as custom metrics.
func BenchmarkFigure3_OutputSize(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 100, 2)
	cost := core.CostModel{Alpha: 1, Beta: 10} // the paper's Webspam ratio
	for _, r := range ds.Meta.PaperRadii {
		ix, err := core.NewIndex(data, core.Config[vector.Sparse]{
			Family:   lsh.NewSimHashCosine(dataset.WebspamDim),
			Distance: distance.Cosine,
			Radius:   r,
			Cost:     cost,
			Seed:     4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("r=%v", r), func(b *testing.B) {
			var outSum, outMax, linCalls int
			for i := 0; i < b.N; i++ {
				out, stats := ix.Query(queries[i%len(queries)])
				outSum += len(out)
				if len(out) > outMax {
					outMax = len(out)
				}
				if stats.Strategy == core.StrategyLinear {
					linCalls++
				}
			}
			b.ReportMetric(float64(outSum)/float64(b.N), "out-avg")
			b.ReportMetric(float64(outMax), "out-max")
			b.ReportMetric(100*float64(linCalls)/float64(b.N), "LS%")
		})
	}
}

// BenchmarkExtensionMultiProbe exercises the paper's first future-work
// combination: hybrid search over query-directed multi-probe LSH (Lv et
// al.) on Corel-like L2 data — few tables, many probes, per strategy.
func BenchmarkExtensionMultiProbe(b *testing.B) {
	ds := dataset.CorelLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 50, 2)
	ix, err := core.NewIndex(data, core.Config[vector.Dense]{
		Family:   lsh.NewPStableL2(dataset.CorelDim, 0.9),
		Distance: distance.L2,
		Radius:   0.45,
		K:        10,
		L:        8,
		Probes:   16,
		Seed:     4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []struct {
		name string
		run  func(q vector.Dense) ([]int32, core.QueryStats)
	}{
		{"hybrid", ix.Query},
		{"multiprobe-lsh", ix.QueryLSH},
		{"linear", ix.QueryLinear},
	} {
		b.Run(strat.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				strat.run(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkExtensionCovering exercises the paper's second future-work
// combination: hybrid search over covering LSH (Pagh, no false negatives)
// on MNIST-like fingerprints at a covering-feasible radius.
func BenchmarkExtensionCovering(b *testing.B) {
	ds := dataset.MNISTLike(benchScale()/2, 1)
	data, queries := dataset.SplitQueries(ds.Points, 50, 2)
	ix, err := covering.New(data, 6, covering.Config{Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []struct {
		name string
		run  func(q vector.Binary) ([]int32, core.QueryStats)
	}{
		{"hybrid", ix.Query},
		{"covering-lsh", ix.QueryLSH},
		{"linear", ix.QueryLinear},
	} {
		b.Run(strat.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				strat.run(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkHLLMerge measures the raw O(m·L) merge the paper bounds against
// the S1 hashing cost (Section 3.2's overhead analysis).
func BenchmarkHLLMerge(b *testing.B) {
	sketches := make([]*hll.Sketch, 50)
	for i := range sketches {
		s := hll.New(128)
		for j := uint64(0); j < 1000; j++ {
			s.AddID(j * uint64(i+1))
		}
		sketches[i] = s
	}
	target := hll.New(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.Reset()
		for _, s := range sketches {
			target.Merge(s)
		}
		_ = target.Estimate()
	}
}

// BenchmarkIndexBuild measures Algorithm-1 construction throughput.
func BenchmarkIndexBuild(b *testing.B) {
	ds := dataset.MNISTLike(0.02, 1)
	for i := 0; i < b.N; i++ {
		_, err := core.NewIndex(ds.Points, core.Config[vector.Binary]{
			Family:   lsh.NewBitSampling(dataset.MNISTBits),
			Distance: distance.Hamming,
			Radius:   14,
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
