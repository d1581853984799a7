package lsh_test

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/vector"
)

// BenchmarkKernelAppend appends 32-point batches to one shard of the
// corel-readwrite load workload, as its writer does: 33 520 Corel-like
// points at d = 32 (every other point of the 67 040 it indexes), L = 50
// tables of k = 7 projections at w = 2r = 0.7, m = 128. The batches run
// through the refreezes they set off — a table folds its overlay into a
// new slab once the ids appended since its freeze pass 1/8 of the
// slab's, about every 131 batches here — and every period of batches
// starts again from a fresh copy of the shard, made off the clock.
// ns/batch and allocs/batch are per Append.
func BenchmarkKernelAppend(b *testing.B) {
	const batch, period = 32, 256
	data, _ := dataset.SplitQueries(dataset.CorelLike(1, 1).Points, 1000, 1)
	pts := make([]vector.Dense, 0, len(data)/2)
	for i := 0; i < len(data); i += 2 {
		pts = append(pts, data[i])
	}
	fresh := dataset.CorelLike(0.05, 2).Points
	base, err := lsh.Build(pts, lsh.NewPStableL2(dataset.CorelDim, 0.7), lsh.Params{K: 7, L: 50, HLLRegisters: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	identity := make([]int32, base.N())
	for i := range identity {
		identity[i] = int32(i)
	}
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var tb *lsh.Tables[vector.Dense]
	var allocs, start uint64
	// A b.N loop, not b.Loop: b.Loop's time budget counts only since the
	// last StartTimer, so the resets would keep it running.
	b.ResetTimer()
	for i := range b.N {
		if i%period == 0 {
			b.StopTimer()
			if i > 0 {
				allocs += mallocs() - start
			}
			if tb, err = base.Compact(identity, base.N()); err != nil {
				b.Fatal(err)
			}
			start = mallocs()
			b.StartTimer()
		}
		at := i * batch % (len(fresh) - batch)
		if err := tb.Append(fresh[at : at+batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	allocs += mallocs() - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/batch")
	b.ReportMetric(float64(allocs)/float64(b.N), "allocs/batch")
}
