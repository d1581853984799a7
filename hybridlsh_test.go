package hybridlsh

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/rng"
	"repro/internal/vector"
)

func TestNewL2IndexEndToEnd(t *testing.T) {
	ds := dataset.CorelLike(0.01, 1)
	data, queries := dataset.SplitQueries(ds.Points, 20, 2)
	ix, err := New(L2, data, 0.45, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 7 {
		t.Fatalf("K = %d, want the paper's 7", ix.K())
	}
	var recallSum float64
	var nonEmpty int
	for _, q := range queries {
		ids, stats := ix.Query(q)
		truth := GroundTruth(L2, data, q, 0.45)
		if len(truth) > 0 {
			nonEmpty++
			recallSum += Recall(ids, truth)
		}
		for _, id := range ids {
			if distance.L2(data[id], q) > 0.45 {
				t.Fatalf("reported point beyond radius")
			}
		}
		_ = stats
	}
	if nonEmpty == 0 {
		t.Fatal("no query had neighbors; workload broken")
	}
	if mean := recallSum / float64(nonEmpty); mean < 0.85 {
		t.Fatalf("mean recall %v < 0.85", mean)
	}
}

func TestNewL1IndexEndToEnd(t *testing.T) {
	ds := dataset.CoverTypeLike(0.001, 4)
	data, queries := dataset.SplitQueries(ds.Points, 10, 5)
	ix, err := New(L1, data, 3400, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 8 {
		t.Fatalf("K = %d, want the paper's 8", ix.K())
	}
	var recallSum float64
	var nonEmpty int
	for _, q := range queries {
		ids, _ := ix.Query(q)
		truth := GroundTruth(L1, data, q, 3400)
		if len(truth) > 0 {
			nonEmpty++
			recallSum += Recall(ids, truth)
		}
	}
	if nonEmpty == 0 {
		t.Skip("no L1 neighbors at this scale")
	}
	if mean := recallSum / float64(nonEmpty); mean < 0.80 {
		t.Fatalf("mean recall %v < 0.80", mean)
	}
}

func TestNewCosineIndexEndToEnd(t *testing.T) {
	ds := dataset.WebspamLike(0.004, 7)
	data, queries := dataset.SplitQueries(ds.Points, 15, 8)
	ix, err := New(Cosine, data, 0.08, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	var nonEmpty int
	sawLinear, sawLSH := false, false
	for _, q := range queries {
		ids, stats := ix.Query(q)
		switch stats.Strategy {
		case StrategyLinear:
			sawLinear = true
		case StrategyLSH:
			sawLSH = true
		}
		var truth []int32
		for i := range data {
			if distance.Cosine(data[i], q) <= 0.08 {
				truth = append(truth, int32(i))
			}
		}
		if len(truth) > 0 {
			nonEmpty++
			recallSum += Recall(ids, truth)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no cosine neighbors; workload broken")
	}
	if mean := recallSum / float64(nonEmpty); mean < 0.85 {
		t.Fatalf("mean recall %v < 0.85", mean)
	}
	// The Webspam-like workload is exactly the one where both strategies
	// must appear (Figure 3 right: 10–50% linear calls).
	if !sawLSH {
		t.Error("no query used LSH search")
	}
	if !sawLinear {
		t.Error("no query fell back to linear search (hard queries missing)")
	}
}

func TestNewHammingIndexEndToEnd(t *testing.T) {
	ds := dataset.MNISTLike(0.01, 10)
	data, queries := dataset.SplitQueries(ds.Points, 15, 11)
	ix, err := New(Hamming, data, 14, WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	var nonEmpty int
	for _, q := range queries {
		ids, _ := ix.Query(q)
		var truth []int32
		for i := range data {
			if vector.Hamming(data[i], q) <= 14 {
				truth = append(truth, int32(i))
			}
		}
		if len(truth) > 0 {
			nonEmpty++
			recallSum += Recall(ids, truth)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no Hamming neighbors; workload broken")
	}
	if mean := recallSum / float64(nonEmpty); mean < 0.85 {
		t.Fatalf("mean recall %v < 0.85", mean)
	}
}

func TestNewJaccardIndexEndToEnd(t *testing.T) {
	// Sets with planted near-duplicates.
	r := rng.New(13)
	const dim, n = 256, 2000
	pts := make([]Binary, n)
	base := NewBinaryVector(dim)
	for i := 0; i < 40; i++ {
		base.SetBit(r.Intn(dim), true)
	}
	for i := range pts {
		p := base.Clone()
		flips := 2 + r.Intn(6)
		for f := 0; f < flips; f++ {
			p.FlipBit(r.Intn(dim))
		}
		if i >= n/2 {
			// Background: unrelated random sets.
			p = NewBinaryVector(dim)
			for j := 0; j < 40; j++ {
				p.SetBit(r.Intn(dim), true)
			}
		}
		pts[i] = p
	}
	ix, err := New(Jaccard, pts, 0.3, WithSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	ids, stats := ix.Query(base)
	if len(ids) < n/4 {
		t.Fatalf("query found %d of ~%d near-duplicates", len(ids), n/2)
	}
	for _, id := range ids {
		if distance.Jaccard(pts[id], base) > 0.3 {
			t.Fatal("reported point beyond Jaccard radius")
		}
	}
	_ = stats
}

func TestConstructorErrors(t *testing.T) {
	if _, err := New(L2, nil, 1); err == nil {
		t.Error("empty L2 accepted")
	}
	if _, err := New(Hamming, nil, 1); err == nil {
		t.Error("empty Hamming accepted")
	}
	if _, err := New(Cosine, nil, 1); err == nil {
		t.Error("empty cosine accepted")
	}
	if _, err := New(Jaccard, nil, 0.5); err == nil {
		t.Error("empty Jaccard accepted")
	}
	if _, err := New(L1, nil, 1); err == nil {
		t.Error("empty L1 accepted")
	}
	pts := []Dense{{1, 2}, {3, 4}}
	if _, err := New(L2, pts, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := New(L2, pts, 1, WithDelta(2)); err == nil {
		t.Error("delta > 1 accepted")
	}
	bin := []Binary{NewBinaryVector(64)}
	if _, err := New(Hamming, bin, 64); err == nil {
		t.Error("degenerate radius (p1 = 0) accepted")
	}
}

func TestOptionsApplied(t *testing.T) {
	ds := dataset.MNISTLike(0.01, 15)
	ix, err := New(Hamming, ds.Points, 13,
		WithTables(20), WithK(9), WithHLLRegisters(32),
		WithSeed(16), WithCostModel(CostModel{Alpha: 2, Beta: 4}),
		WithDelta(0.05),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ix.L() != 20 || ix.K() != 9 {
		t.Fatalf("L/K = %d/%d, want 20/9", ix.L(), ix.K())
	}
	if ix.Cost() != (CostModel{Alpha: 2, Beta: 4}) {
		t.Fatalf("cost model not applied: %+v", ix.Cost())
	}
}

func TestWithSlotWidthPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithSlotWidth(0) did not panic")
		}
	}()
	WithSlotWidth(0)(&options{})
}

func TestWithSlotWidthOverridesDefault(t *testing.T) {
	ds := dataset.CorelLike(0.01, 17)
	a, err := New(L2, ds.Points, 0.5, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(L2, ds.Points, 0.5, WithSeed(1), WithSlotWidth(5))
	if err != nil {
		t.Fatal(err)
	}
	// A much wider slot raises p1, which raises the solved k... unless K
	// is pinned; both pin K = 7, so compare collision behaviour instead:
	// wider slots must produce at least as many collisions for any query.
	q := ds.Points[0]
	_, sa := a.QueryLSH(q)
	_, sb := b.QueryLSH(q)
	if sb.Collisions < sa.Collisions {
		t.Fatalf("wider slots yielded fewer collisions: %d < %d", sb.Collisions, sa.Collisions)
	}
}

func TestCalibrateHelper(t *testing.T) {
	ds := dataset.CorelLike(0.01, 18)
	cm := Calibrate(L2, ds.Points, 10, 500, 1)
	if !cm.Valid() {
		t.Fatalf("Calibrate returned %+v", cm)
	}
	if math.IsNaN(cm.BetaOverAlpha()) {
		t.Fatal("ratio NaN")
	}
}

func TestSparseVectorHelper(t *testing.T) {
	s := NewSparseVector(10, []int32{3, 1}, []float32{2, 1})
	if s.NNZ() != 2 || s.Idx[0] != 1 {
		t.Fatalf("NewSparseVector broken: %+v", s)
	}
}

func TestMetricSpecificHelpers(t *testing.T) {
	dense := []Dense{{0, 0}, {1, 0}, {5, 5}}
	if got := GroundTruth(L1, dense, Dense{0, 0}, 1.5); len(got) != 2 {
		t.Errorf("GroundTruth(L1) = %v", got)
	}
	sp := []Sparse{
		NewSparseVector(3, []int32{0}, []float32{1}),
		NewSparseVector(3, []int32{0, 1}, []float32{1, 0.05}),
		NewSparseVector(3, []int32{2}, []float32{1}),
	}
	if got := GroundTruth(Cosine, sp, sp[0], 0.01); len(got) != 2 {
		t.Errorf("GroundTruth(Cosine) = %v", got)
	}
	bin := []Binary{NewBinaryVector(64), NewBinaryVector(64)}
	bin[1].SetBit(0, true)
	if got := GroundTruth(Hamming, bin, bin[0], 0); len(got) != 1 {
		t.Errorf("GroundTruth(Hamming) = %v", got)
	}
	if got := GroundTruth(Jaccard, bin, bin[0], 0.0); len(got) != 1 {
		t.Errorf("GroundTruth(Jaccard) = %v", got)
	}
	for _, cm := range []CostModel{
		Calibrate(L1, dense, 5, 3, 1),
		Calibrate(Hamming, bin, 5, 2, 1),
		Calibrate(Jaccard, bin, 5, 2, 1),
	} {
		if !cm.Valid() {
			t.Errorf("calibration invalid: %+v", cm)
		}
	}
	ds := dataset.WebspamLike(0.003, 3)
	if cm := Calibrate(Cosine, ds.Points, 5, 200, 1); !cm.Valid() {
		t.Errorf("cosine calibration invalid: %+v", cm)
	}
}

func TestNewAngularIndexEndToEnd(t *testing.T) {
	r := rng.New(91)
	const dim, n = 24, 2000
	pts := make([]Dense, n)
	center := make(Dense, dim)
	for j := range center {
		center[j] = float32(r.Normal())
	}
	center.Normalize()
	for i := range pts {
		p := make(Dense, dim)
		for j := range p {
			p[j] = float32(r.Normal())
		}
		p.Normalize()
		if i < 300 {
			// Mix toward the center: small angles.
			for j := range p {
				p[j] = center[j]*0.97 + p[j]*0.1
			}
			p.Normalize()
		}
		pts[i] = p
	}
	ix, err := New(Angular, pts, 0.12, WithSeed(92), WithTables(30))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ix.Query(center)
	var truth []int32
	for i := range pts {
		if distance.AngularDense(pts[i], center) <= 0.12 {
			truth = append(truth, int32(i))
		}
	}
	if len(truth) < 100 {
		t.Fatalf("planted cluster too small: %d", len(truth))
	}
	if rec := Recall(out, truth); rec < 0.8 {
		t.Fatalf("angular recall %v < 0.8", rec)
	}
	for _, id := range out {
		if distance.AngularDense(pts[id], center) > 0.12 {
			t.Fatal("false positive beyond angular radius")
		}
	}
	if _, err := New(Angular, nil, 0.1); err == nil {
		t.Error("empty point set accepted")
	}
}
