package persist

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/vector"
)

// refitted derives a new cost model from cur the way the online
// recalibrator does — through obs.RefitCost over measured
// ns-per-cost-unit medians — so the round trip exercises exactly the
// models a drift loop swaps in, not hand-picked constants.
func refitted(t *testing.T, cur core.CostModel) core.CostModel {
	t.Helper()
	next, err := obs.RefitCost(cur, obs.DriftStats{
		LSHNsPerCost:    obs.DriftSeries{Count: 64, P50: 1.75},
		LinearNsPerCost: obs.DriftSeries{Count: 64, P50: 0.6},
	})
	if err != nil {
		t.Fatalf("RefitCost: %v", err)
	}
	if next == cur {
		t.Fatalf("refit did not move the model (%+v)", cur)
	}
	return next
}

// TestRefitSurvivesSnapshot closes the last gap in the drift loop: a
// refitted cost model adopted at runtime must come back from a snapshot
// byte-exact, per store kind, or the first restart would silently undo
// the recalibration and resurrect the stale decision boundary.
func TestRefitSurvivesSnapshot(t *testing.T) {
	t.Run("core", func(t *testing.T) {
		pts := denseData(tn, tdim, 1)
		ix, err := core.NewIndex(pts, cfg[vector.Dense](lsh.NewPStableL2(tdim, 0.8), distance.L2, 0.4))
		if err != nil {
			t.Fatal(err)
		}
		next := refitted(t, ix.Cost())
		if err := ix.SetCost(next); err != nil {
			t.Fatal(err)
		}
		// roundTrip's assertIdentical covers Cost() equality and
		// id-identical answers; pin the absolute value too.
		loaded := roundTrip(t, MetricL2, ix, denseData(tq, tdim, 2))
		if loaded.Cost() != next {
			t.Fatalf("restored cost = %+v, want refitted %+v", loaded.Cost(), next)
		}
	})

	t.Run("multiprobe", func(t *testing.T) {
		mp := buildMultiProbe(t, 9)
		next := refitted(t, mp.Cost())
		if err := mp.SetCost(next); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricL2, mp); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := readMultiProbe(bytes.NewReader(buf.Bytes()), MetricL2)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Cost() != next {
			t.Fatalf("restored cost = %+v, want refitted %+v", loaded.Cost(), next)
		}
		for qi, q := range denseData(20, 4, 12) {
			wids, _ := mp.Query(q)
			gids, _ := loaded.Query(q)
			slices.Sort(wids)
			slices.Sort(gids)
			if !slices.Equal(wids, gids) {
				t.Fatalf("query %d: ids %v != %v", qi, gids, wids)
			}
		}
	})

	t.Run("covering", func(t *testing.T) {
		ix := buildCoveringIndex(t, 60, 3)
		next := refitted(t, ix.Cost())
		if err := ix.SetCost(next); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, MetricHamming, ix); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := readCovering(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Cost() != next {
			t.Fatalf("restored cost = %+v, want refitted %+v", loaded.Cost(), next)
		}
		assertCoveringIdentical(t, ix, loaded, binaryData(25, 64, 99))
	})
}
