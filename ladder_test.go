package hybridlsh

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
)

func TestNewL2LadderServesArbitraryRadii(t *testing.T) {
	ds := dataset.CorelLike(0.01, 61)
	data, queries := dataset.SplitQueries(ds.Points, 10, 62)
	ladder, err := NewLadder(L2, data, 0.2, 0.7, 1.4, WithSeed(63))
	if err != nil {
		t.Fatal(err)
	}
	rungs := ladder.Rungs()
	if len(rungs) < 3 {
		t.Fatalf("only %d rungs built", len(rungs))
	}
	if rungs[len(rungs)-1] < 0.7 {
		t.Fatalf("top rung %v does not cover rmax", rungs[len(rungs)-1])
	}
	// Arbitrary radii, including ones between rungs.
	for _, r := range []float64{0.2, 0.25, 0.33, 0.45, 0.61, 0.7} {
		var recallSum float64
		nonEmpty := 0
		for _, q := range queries {
			ids, _, err := ladder.Query(q, r)
			if err != nil {
				t.Fatal(err)
			}
			// No false positives at the *query* radius (not the rung's).
			for _, id := range ids {
				if distance.L2(data[id], q) > r {
					t.Fatalf("r=%v: reported point at distance %v", r, distance.L2(data[id], q))
				}
			}
			truth := GroundTruth(L2, data, q, r)
			if len(truth) > 0 {
				nonEmpty++
				recallSum += Recall(ids, truth)
			}
		}
		if nonEmpty > 0 && recallSum/float64(nonEmpty) < 0.8 {
			t.Errorf("r=%v: ladder recall %v < 0.8", r, recallSum/float64(nonEmpty))
		}
	}
}

func TestLadderQueryErrors(t *testing.T) {
	ds := dataset.CorelLike(0.01, 64)
	ladder, err := NewLadder(L2, ds.Points, 0.3, 0.5, 1.3, WithSeed(65))
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Points[0]
	if _, _, err := ladder.Query(q, 0); err == nil {
		t.Error("radius 0 accepted")
	}
	if _, _, err := ladder.Query(q, 10); err == nil {
		t.Error("radius above top rung accepted")
	}
	// Top rung exactly must work.
	top := ladder.Rungs()[len(ladder.Rungs())-1]
	if _, _, err := ladder.Query(q, top); err != nil {
		t.Errorf("top-rung query failed: %v", err)
	}
}

func TestLadderConstructionErrors(t *testing.T) {
	pts := []Dense{{1, 2}, {3, 4}}
	cases := []struct{ rmin, rmax, c float64 }{
		{0, 1, 2},     // rmin 0
		{1, 0.5, 2},   // rmax < rmin
		{0.1, 1, 1},   // c = 1
		{0.1, 1, 0.5}, // c < 1
	}
	for i, tc := range cases {
		if _, err := NewLadder(L2, pts, tc.rmin, tc.rmax, tc.c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewLadder(L2, nil, 0.1, 1, 2); err == nil {
		t.Error("empty points accepted")
	}
	// Too many rungs.
	if _, err := NewLadder(L2, pts, 1e-9, 1e9, 1.01); err == nil {
		t.Error("absurd rung count accepted")
	}
}

func TestNewHammingLadder(t *testing.T) {
	ds := dataset.MNISTLike(0.01, 66)
	data, queries := dataset.SplitQueries(ds.Points, 8, 67)
	ladder, err := NewLadder(Hamming, data, 8, 18, 1.5, WithSeed(68))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{8, 11, 14, 17} {
		for _, q := range queries {
			ids, _, err := ladder.Query(q, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if distance.Hamming(data[id], q) > r {
					t.Fatalf("r=%v: false positive", r)
				}
			}
		}
	}
}
