package hybridlsh

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hll"
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

// BenchmarkAblationHLLRegisters sweeps the register count m (the paper
// fixes m = 128 and notes m = 32 suffices for MNIST): merge+estimate time
// and estimate error per m.
func BenchmarkAblationHLLRegisters(b *testing.B) {
	ds := dataset.WebspamLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 50, 2)
	for _, m := range []int{16, 32, 64, 128, 256} {
		ix, err := New(Cosine, data, 0.07, WithHLLRegisters(m), WithSeed(4))
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
	cost := CostModel{Alpha: 1, Beta: 10} // the paper's Webspam ratio
	ix, err := New(Cosine, data, 0.08, WithCostModel(cost), WithSeed(4))
	if err != nil {
		b.Fatal(err)
	}
	agree, total := 0, 0
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		got, stats := ix.DecideStrategy(q)
		_, lshStats := ix.QueryLSH(q)
		oracle := StrategyLinear
		if cost.LSHCost(stats.Collisions, float64(lshStats.Candidates)) < cost.LinearCost(len(data)) {
			oracle = StrategyLSH
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

// BenchmarkExtensionMultiProbe exercises the paper's first future-work
// combination: hybrid search over query-directed multi-probe LSH (Lv et
// al.) on Corel-like L2 data — few tables, many probes, per strategy.
func BenchmarkExtensionMultiProbe(b *testing.B) {
	ds := dataset.CorelLike(benchScale(), 1)
	data, queries := dataset.SplitQueries(ds.Points, 50, 2)
	ix, err := New(L2, data, 0.45, WithK(10), WithTables(8), WithProbes(16), WithSeed(4))
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []struct {
		name string
		run  func(q Dense) ([]int32, QueryStats)
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
	ix, err := New(Hamming, data, 6, WithCovering(), WithSeed(4))
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []struct {
		name string
		run  func(q Binary) ([]int32, QueryStats)
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
		if _, err := New(Hamming, ds.Points, 14, WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
