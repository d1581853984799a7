package dataset

import (
	"math"
	"sort"
	"testing"

	"repro/internal/distance"
	"repro/internal/rng"
	"repro/internal/vector"
)

func TestSplitQueries(t *testing.T) {
	pts := make([]int, 100)
	for i := range pts {
		pts[i] = i
	}
	data, queries := SplitQueries(pts, 10, 1)
	if len(data) != 90 || len(queries) != 10 {
		t.Fatalf("split sizes %d/%d", len(data), len(queries))
	}
	seen := make(map[int]bool)
	for _, v := range append(append([]int{}, data...), queries...) {
		if seen[v] {
			t.Fatalf("value %d duplicated across split", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("split lost values: %d", len(seen))
	}
}

func TestSplitQueriesDeterministic(t *testing.T) {
	pts := make([]int, 50)
	for i := range pts {
		pts[i] = i
	}
	_, q1 := SplitQueries(pts, 5, 7)
	_, q2 := SplitQueries(pts, 5, 7)
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("SplitQueries not deterministic")
		}
	}
}

func TestSplitQueriesPanics(t *testing.T) {
	for _, nq := range []int{0, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nq=%d did not panic", nq)
				}
			}()
			SplitQueries(make([]int, 10), nq, 1)
		}()
	}
}

func TestPowerLawSizes(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct{ n, k int }{{1000, 10}, {50, 100}, {10000, 250}} {
		sizes := powerLawSizes(tc.n, tc.k, 0.55, r)
		total := 0
		for _, s := range sizes {
			if s < 1 {
				t.Fatalf("cluster size %d < 1", s)
			}
			total += s
		}
		if total != tc.n {
			t.Fatalf("sizes sum to %d, want %d", total, tc.n)
		}
	}
}

func TestCorelLikeShape(t *testing.T) {
	ds := CorelLike(0.02, 1)
	if ds.Meta.Dim != CorelDim || ds.Meta.Metric != distance.L2Kind {
		t.Fatalf("meta wrong: %+v", ds.Meta)
	}
	if len(ds.Points) != ds.Meta.N || len(ds.Points) < 500 {
		t.Fatalf("N = %d vs %d points", ds.Meta.N, len(ds.Points))
	}
	for _, p := range ds.Points[:100] {
		if len(p) != CorelDim {
			t.Fatal("wrong dimension")
		}
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("histogram value %v outside [0,1]", v)
			}
		}
	}
}

func TestCorelLikeRadiiAreInteresting(t *testing.T) {
	// At the paper's radii, some queries must have small output and some
	// large — otherwise the Figure-2d sweep would be degenerate.
	ds := CorelLike(0.02, 2)
	data, queries := SplitQueries(ds.Points, 20, 3)
	r := ds.Meta.PaperRadii[len(ds.Meta.PaperRadii)-1]
	counts := outputSizes(data, queries, func(a, b vector.Dense) float64 { return distance.L2(a, b) }, r)
	if counts[len(counts)-1] == 0 {
		t.Fatal("no query has any neighbor at the largest paper radius")
	}
	if counts[0] >= len(data)/2 {
		t.Fatal("every query is dense: no easy queries at the largest radius")
	}
}

func TestCoverTypeLikeShape(t *testing.T) {
	ds := CoverTypeLike(0.002, 4)
	if ds.Meta.Dim != CoverTypeDim || ds.Meta.Metric != distance.L1Kind {
		t.Fatalf("meta wrong: %+v", ds.Meta)
	}
	// Binary tail features are 0/1.
	for _, p := range ds.Points[:50] {
		for j := 10; j < CoverTypeDim; j++ {
			if p[j] != 0 && p[j] != 1 {
				t.Fatalf("indicator feature %d = %v", j, p[j])
			}
		}
	}
	// L1 scale: paper radii must separate within-cluster from background.
	data, queries := SplitQueries(ds.Points, 20, 5)
	mid := ds.Meta.PaperRadii[2]
	counts := outputSizes(data, queries, func(a, b vector.Dense) float64 { return distance.L1(a, b) }, mid)
	if counts[len(counts)-1] == 0 {
		t.Fatal("largest output is 0 at mid paper radius: scale mismatch")
	}
	if counts[0] >= len(data) {
		t.Fatal("radius swallows the whole dataset: scale mismatch")
	}
}

func TestWebspamLikeHardQueries(t *testing.T) {
	// The defining property (Figure 3): at r = 0.10 the max output size is
	// a large fraction of n while the min output is tiny.
	ds := WebspamLike(0.01, 6)
	data, queries := SplitQueries(ds.Points, 50, 7)
	counts := outputSizes(data, queries, distance.Cosine, 0.10)
	min, max := counts[0], counts[len(counts)-1]
	n := len(data)
	if max < n/4 {
		t.Fatalf("max output %d < n/4 = %d: giant clusters missing", max, n/4)
	}
	if min > n/20 {
		t.Fatalf("min output %d > n/20: no easy queries", min)
	}
}

func TestWebspamLikeUnitNorm(t *testing.T) {
	ds := WebspamLike(0.005, 8)
	for _, p := range ds.Points[:100] {
		if math.Abs(p.Norm2()-1) > 1e-5 {
			t.Fatalf("norm %v != 1", p.Norm2())
		}
		if p.NNZ() == 0 || p.NNZ() > WebspamDim {
			t.Fatalf("nnz %d out of range", p.NNZ())
		}
	}
}

func TestMNISTLikeShape(t *testing.T) {
	ds := MNISTLike(0.02, 9)
	if ds.Meta.Dim != MNISTBits || ds.Meta.Metric != distance.HammingKind {
		t.Fatalf("meta wrong: %+v", ds.Meta)
	}
	for _, p := range ds.Points[:50] {
		if p.Dim != 64 {
			t.Fatal("fingerprint not 64 bits")
		}
	}
	// Within the paper's radius range some queries must find neighbors.
	data, queries := SplitQueries(ds.Points, 30, 10)
	counts := outputSizes(data, queries, distance.Hamming, 14)
	if counts[len(counts)-1] == 0 {
		t.Fatal("no neighbors at r = 14: fingerprint noise mis-tuned")
	}
	if counts[0] >= len(data) {
		t.Fatal("r = 14 swallows everything: fingerprint noise mis-tuned")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := WebspamLike(0.005, 42)
	b := WebspamLike(0.005, 42)
	if len(a.Points) != len(b.Points) {
		t.Fatal("sizes differ across equal seeds")
	}
	for i := range a.Points {
		if a.Points[i].NNZ() != b.Points[i].NNZ() {
			t.Fatal("points differ across equal seeds")
		}
	}
	c := WebspamLike(0.005, 43)
	diff := false
	for i := range a.Points {
		if a.Points[i].NNZ() != c.Points[i].NNZ() {
			diff = true
			break
		}
	}
	if !diff && len(a.Points) == len(c.Points) {
		// NNZ collision everywhere is conceivable but vanishingly unlikely;
		// compare a value to be sure.
		if a.Points[0].Val[0] == c.Points[0].Val[0] {
			t.Fatal("different seeds produced identical data")
		}
	}
}

func TestScaleN(t *testing.T) {
	if got := scaleN(1000, 0.5, 10); got != 500 {
		t.Fatalf("scaleN = %d", got)
	}
	if got := scaleN(1000, 0.001, 100); got != 100 {
		t.Fatalf("scaleN floor = %d", got)
	}
}

// outputSizes returns the sorted output sizes of each query at radius r.
func outputSizes[P any](data []P, queries []P, dist func(a, b P) float64, r float64) []int {
	counts := make([]int, len(queries))
	for qi, q := range queries {
		for _, p := range data {
			if dist(p, q) <= r {
				counts[qi]++
			}
		}
	}
	sort.Ints(counts)
	return counts
}
