package stats

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between points.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	// Single element.
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	// Input must not be reordered.
	orig := []float64{3, 1, 2}
	Quantile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanStdKnownSample(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Population variance 4; the unbiased sample variance is 32/7.
	if Mean(xs) != 5 || math.Abs(Std(xs)-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("Mean = %v, Std = %v, want 5 and %v", Mean(xs), Std(xs), math.Sqrt(32.0/7))
	}
}

func TestMeanStdEdgeCases(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{5}) != 0 {
		t.Fatal("empty/singleton edge cases wrong")
	}
}
