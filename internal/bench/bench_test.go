package bench

import (
	"slices"
	"strings"
	"testing"
)

// Shape tests run each experiment in a regime where the paper's cost-model
// assumptions hold (n in the tens of thousands, so the S1 hashing cost the
// model neglects is small next to the search cost). They are the
// reproduction's acceptance tests; `go test -short` skips them.

func TestWebspamExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness shape test")
	}
	// Figure 3 uses the paper's fixed β/α = 10 (the paper's own choice for
	// Webspam); with it the strategy-decision shape reproduces directly.
	cfg := DefaultConfig(0.05)
	cfg.Queries = 30
	cfg.Calibrate = false
	res, err := WebspamExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 radii", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Figure 3 right: linear-search calls present at the smallest radius
	// and growing with it (paper: ~10% at r=0.05 up to ~50% at r=0.1).
	if first.LSCallsPct <= 0 {
		t.Errorf("no linear-search calls at r=0.05; hard queries missing")
	}
	if last.LSCallsPct < first.LSCallsPct {
		t.Errorf("LS%% fell from %.1f to %.1f as radius grew", first.LSCallsPct, last.LSCallsPct)
	}
	if last.LSCallsPct < 20 || last.LSCallsPct > 90 {
		t.Errorf("LS%% at r=0.1 = %.1f, want the paper's ~50%% regime", last.LSCallsPct)
	}
	// Figure 3 left: output sizes span ~0 to ~n/2.
	if last.OutMax < res.N/4 {
		t.Errorf("max output %d < n/4: giant clusters missing", last.OutMax)
	}
	if last.OutMin > res.N/20 {
		t.Errorf("min output %d too large: easy queries missing", last.OutMin)
	}
	// Figure 2b: hybrid must beat linear search across the sweep (in our
	// implementation pure LSH never loses at this scale, so hybrid tracks
	// it).
	for _, row := range res.Rows {
		if row.HybridCost > row.LinearCost {
			t.Errorf("r=%v: hybrid cost %.4g above linear %.4g", row.Radius, row.HybridCost, row.LinearCost)
		}
		if row.HybridRecall < row.LSHRecall-0.02 {
			t.Errorf("r=%v: hybrid recall %.3f below LSH %.3f", row.Radius, row.HybridRecall, row.LSHRecall)
		}
	}
}

func TestMNISTExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness shape test")
	}
	cfg := DefaultConfig(0.3)
	cfg.Queries = 30
	res, err := MNISTExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := CheckShape(res, 1.5); len(bad) > 0 {
		t.Errorf("shape violations:\n%s", strings.Join(bad, "\n"))
	}
	for _, row := range res.Rows {
		if row.HybridRecall < 0.85 {
			t.Errorf("r=%v: hybrid recall %.3f < 0.85", row.Radius, row.HybridRecall)
		}
	}
}

func TestCorelExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness shape test")
	}
	cfg := DefaultConfig(0.3)
	cfg.Queries = 30
	res, err := CorelExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := CheckShape(res, 1.5); len(bad) > 0 {
		t.Errorf("shape violations:\n%s", strings.Join(bad, "\n"))
	}
}

func TestCoverTypeExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness shape test")
	}
	cfg := DefaultConfig(0.02)
	cfg.Queries = 30
	res, err := CoverTypeExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bad := CheckShape(res, 1.5); len(bad) > 0 {
		t.Errorf("shape violations:\n%s", strings.Join(bad, "\n"))
	}
}

// TestFigureStores holds each panel's indexes to the point store the
// root API picks for its metric, the one an index under it serves with:
// the flat layouts for Hamming (2a) and L2 (2d), the generic one for
// cosine (2b) and L1 (2c).
func TestFigureStores(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	cfg := DefaultConfig(0.005)
	cfg.Queries = 5
	cfg.Calibrate = false
	for _, f := range []struct {
		id, want string
		run      func(Config) (*Fig2Result, error)
	}{
		{"fig2a", "flat", MNISTExperiment},
		{"fig2b", "generic", WebspamExperiment},
		{"fig2c", "generic", CoverTypeExperiment},
		{"fig2d", "flat", CorelExperiment},
	} {
		res, err := f.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		if res.Store != f.want {
			t.Errorf("%s: the indexes verify through the %q store, want %q", f.id, res.Store, f.want)
		}
	}
}

func TestTable1Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("harness shape test")
	}
	cfg := DefaultConfig(0.01)
	cfg.Queries = 20
	rows, err := Table1Experiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 datasets", len(rows))
	}
	for _, r := range rows {
		// The paper reports ≤ 7% estimate error at m = 128; allow slack
		// for the small scaled-down candidate sets.
		if r.ErrPct > 15 {
			t.Errorf("%s: estimate error %.2f%% implausibly high", r.Dataset, r.ErrPct)
		}
		if r.CostPct < 0 || r.CostPct > 100 {
			t.Errorf("%s: cost share %.2f%% out of range", r.Dataset, r.CostPct)
		}
		if r.BetaOverAlpha <= 0 {
			t.Errorf("%s: β/α = %v not positive", r.Dataset, r.BetaOverAlpha)
		}
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	cfg := DefaultConfig(0.01)
	cfg.Queries = 10
	res, err := WebspamExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFig2(&sb, res)
	PrintFig3(&sb, res)
	PrintTable1(&sb, []Table1Row{Table1FromSweep(res)})
	out := sb.String()
	for _, want := range []string{"webspam-like", "Hybrid", "LS%", "Table 1", "% Error"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}

func TestCheckShapeFlagsViolations(t *testing.T) {
	res := &Fig2Result{Dataset: "x", Rows: []Fig2Row{
		{Radius: 1, HybridCost: 10, LSHCost: 1, LinearCost: 5, HybridRecall: 0.5, LSHRecall: 0.9},
		// Wall time is not CheckShape's business: a slow clock alone passes.
		{Radius: 2, HybridSec: 10, LSHSec: 1, LinearSec: 5, HybridCost: 1.3, LSHCost: 1, LinearCost: 5, HybridRecall: 0.9, LSHRecall: 0.9},
	}}
	bad := CheckShape(res, 1.35)
	if len(bad) != 2 {
		t.Fatalf("violations = %d, want 2 (cost + recall at r=1): %v", len(bad), bad)
	}
}

// TestSmallRadiiByCount holds Table 1's row pick to the counted costs:
// a row whose clock says LSH lost but whose count says it won is kept,
// and the reverse is dropped, so the pick repeats from run to run.
func TestSmallRadiiByCount(t *testing.T) {
	res := &Fig2Result{Dataset: "x", BetaOverAlpha: 10, Rows: []Fig2Row{
		{Radius: 1, LSHSec: 2, LinearSec: 1, LSHCost: 1, LinearCost: 5},
		{Radius: 2, LSHSec: 1, LinearSec: 2, LSHCost: 5, LinearCost: 5},
		{Radius: 3, LSHSec: 1, LinearSec: 2, LSHCost: 9, LinearCost: 5},
		{Radius: 4, LSHSec: 3, LinearSec: 2, LSHCost: 4, LinearCost: 5},
	}}
	small := smallRadii(res)
	var got []float64
	for _, row := range small.Rows {
		got = append(got, row.Radius)
	}
	if !slices.Equal(got, []float64{1, 4}) || small.Dataset != "x" || small.BetaOverAlpha != 10 {
		t.Errorf("smallRadii kept radii %v of %+v, want [1 4]", got, small)
	}
	res.Rows = res.Rows[1:3]
	if small := smallRadii(res); len(small.Rows) != 1 || small.Rows[0].Radius != 2 {
		t.Errorf("a sweep LSH never wins reports %+v, want its smallest radius", small.Rows)
	}
}

func TestRunSweepEmptyQueries(t *testing.T) {
	if _, err := RunSweep[int]("x", "m", nil, nil, nil, nil, 1); err == nil {
		t.Fatal("RunSweep accepted empty query set")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.L != 50 || cfg.M != 128 || cfg.Delta != 0.1 || cfg.Queries != 100 {
		t.Fatalf("DefaultConfig not the paper's parameters: %+v", cfg)
	}
}

func TestRunSweepMultiRunStats(t *testing.T) {
	if testing.Short() {
		t.Skip("harness test")
	}
	cfg := DefaultConfig(0.005)
	cfg.Queries = 10
	cfg.Runs = 3
	res, err := CorelExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.HybridSec <= 0 || row.LSHSec <= 0 || row.LinearSec <= 0 {
			t.Fatalf("non-positive mean time: %+v", row)
		}
		// With 3 runs the std fields must be populated (>0 except in the
		// astronomically unlikely case of identical nanosecond timings).
		if row.HybridStdSec < 0 || row.LinearStdSec < 0 {
			t.Fatalf("negative std: %+v", row)
		}
		if row.HybridStdSec == 0 && row.LSHStdSec == 0 && row.LinearStdSec == 0 {
			t.Fatal("all stds zero across 3 runs; aggregation broken")
		}
	}
}
