// Package stats provides the small set of summary statistics the
// experiment harness and the serving layer report: the mean and sample
// standard deviation of a set of measurements, exact quantiles, and
// Recorder, a sliding-window latency sample for percentiles. The paper
// reports "the average of 5 runs of algorithms on the query set"; Mean
// over the runs is exactly that.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation on the sorted sample. It panics on an empty sample or a q
// outside [0, 1]. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q = %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile on an already-sorted non-empty sample with
// a validated q; Recorder.Percentiles uses it to sort its window once
// for several quantiles.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the unbiased sample standard deviation of xs (0 for fewer
// than two observations).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}
