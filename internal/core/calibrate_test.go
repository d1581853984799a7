package core

import (
	"errors"
	"testing"

	"repro/internal/distance"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

func TestCheckCalibrationFlagsDegenerateTimings(t *testing.T) {
	cases := []struct {
		name        string
		alpha, beta float64
		want        CostModel
		degenerate  bool
	}{
		{"both measured", 1.5, 3, CostModel{Alpha: 1.5, Beta: 3}, false},
		{"alpha floored", 0, 5, CostModel{Alpha: 0.5, Beta: 5}, true},
		{"alpha negative", -1, 5, CostModel{Alpha: 0.5, Beta: 5}, true},
		{"beta floored to alpha", 2, 0, CostModel{Alpha: 2, Beta: 2}, true},
		{"both floored", 0, 0, CostModel{Alpha: 0.5, Beta: 0.5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := checkCalibration(tc.alpha, tc.beta)
			if got != tc.want {
				t.Fatalf("checkCalibration(%v, %v) = %+v, want %+v", tc.alpha, tc.beta, got, tc.want)
			}
			if tc.degenerate {
				if !errors.Is(err, ErrDegenerateCalibration) {
					t.Fatalf("err = %v, want ErrDegenerateCalibration", err)
				}
			} else if err != nil {
				t.Fatalf("unexpected error for measured constants: %v", err)
			}
			// Floored or not, the returned model must always be servable —
			// the fallback exists so Calibrate never hands out a model that
			// NewIndex would reject.
			if !got.Usable() {
				t.Fatalf("checkCalibration(%v, %v) = %+v is not usable", tc.alpha, tc.beta, got)
			}
		})
	}
}

func TestCalibrateCheckedAgreesWithCalibrate(t *testing.T) {
	w := makeWorkload(2000, 200, 64, 2, 13)
	cm, err := CalibrateChecked(w.points, pointstore.GenericBuilder(distance.Hamming), 20, 1000, 1)
	if !cm.Usable() {
		t.Fatalf("CalibrateChecked returned unusable model %+v", cm)
	}
	// The error channel carries exactly one condition: floored constants.
	// Whether it fires depends on the clock, but when it does the model
	// must still be the documented floor fallback, not garbage.
	if err != nil && !errors.Is(err, ErrDegenerateCalibration) {
		t.Fatalf("CalibrateChecked error = %v, want nil or ErrDegenerateCalibration", err)
	}
	// Calibrate is the errors-swallowed wrapper: same seed, same model.
	if got := Calibrate(w.points, pointstore.GenericBuilder(distance.Hamming), 20, 1000, 1); !got.Usable() {
		t.Fatalf("Calibrate returned unusable model %+v", got)
	}
}

// TestCalibrateTimesTheStore pins what β is a measurement of: the store
// the builder produces is the thing verified, once per query over the
// whole sample — not a distance function called pair by pair beside it.
// Asserted on the store's own counter, since a timing cannot tell.
func TestCalibrateTimesTheStore(t *testing.T) {
	w := makeWorkload(2000, 200, 64, 2, 13)
	const queries = 7
	for _, tc := range []struct {
		name         string
		build        pointstore.Builder[vector.Binary]
		sample, want int
	}{
		{"flat", pointstore.BinaryHammingBuilder(), 300, 300},
		{"generic", pointstore.GenericBuilder(distance.Hamming), 300, 300},
		{"sample capped at n", pointstore.BinaryHammingBuilder(), 5000, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var built pointstore.Store[vector.Binary]
			spy := func(pts []vector.Binary) (pointstore.Store[vector.Binary], error) {
				if built != nil {
					t.Fatal("calibration built more than one store")
				}
				var err error
				built, err = tc.build(pts)
				return built, err
			}
			if cm := Calibrate(w.points, spy, queries, tc.sample, 1); !cm.Usable() {
				t.Fatalf("Calibrate returned unusable model %+v", cm)
			}
			if built == nil {
				t.Fatal("calibration never built the store")
			}
			if got := built.Len(); got != tc.want {
				t.Fatalf("calibration store holds %d points, want %d", got, tc.want)
			}
			if got := built.Stats().Verified; got != uint64(queries*tc.want) {
				t.Fatalf("store verified %d candidates, want queries × sample = %d", got, queries*tc.want)
			}
		})
	}
}

func TestCalibrateReportsStoreError(t *testing.T) {
	pts := []vector.Dense{{1, 2}, {1, 2, 3}, {4, 5}}
	cm, err := CalibrateChecked(pts, pointstore.DenseL2Builder(pointstore.ModeOff), 2, 3, 1)
	if err == nil || errors.Is(err, ErrDegenerateCalibration) {
		t.Fatalf("mixed-dimension sample: err = %v, want the store's refusal", err)
	}
	if cm != DefaultCostModel {
		t.Fatalf("model %+v, want DefaultCostModel", cm)
	}
}
