package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// tiny is the flag set of a run small enough for a unit test.
func tiny(exp string, more ...string) []string {
	return append([]string{"-exp", exp, "-scale", "0.005", "-queries", "5", "-runs", "1"}, more...)
}

// noFile fails the test when path exists.
func noFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%s left behind (stat err %v)", path, err)
	}
}

// TestRunUnknownExperiment: an unknown -exp (the retired experiments
// among them) is refused before anything is created.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nope", "persist", "delete", "cache", "replica"} {
		path := filepath.Join(t.TempDir(), "x.json")
		if err := cli(tiny(exp, "-json", path)); err == nil {
			t.Errorf("-exp %s accepted", exp)
		}
		noFile(t, path)
	}
}

// TestFailedRunLeavesNoReport: an experiment that fails after the
// report file was opened (here, writing its CSV into a directory that
// cannot be made) removes the file rather than leaving it empty.
func TestFailedRunLeavesNoReport(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "x.json")
	if err := cli(tiny("table1", "-csv", filepath.Join(blocker, "csv"), "-json", path)); err == nil {
		t.Fatal("a run whose CSV directory cannot be made succeeded")
	}
	noFile(t, path)
}

func TestRunSingleFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	for _, exp := range []string{"fig2a", "fig2d", "fig3"} {
		if err := cli(tiny(exp, "-quant", "off", "-csv", t.TempDir())); err != nil {
			t.Errorf("-exp %s: %v", exp, err)
		}
	}
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	if err := cli(tiny("table1", "-csv", t.TempDir())); err != nil {
		t.Fatal(err)
	}
}

// TestJSONReport runs one figure with -json and checks the written file
// round-trips with the expected schema and content.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := cli(tiny("fig2a", "-json", path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bench.JSONReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Schema != bench.JSONSchema {
		t.Errorf("schema = %q, want %q", got.Schema, bench.JSONSchema)
	}
	if got.Meta != bench.CollectRunMeta() {
		t.Errorf("meta = %+v, want %+v", got.Meta, bench.CollectRunMeta())
	}
	if got.Config.Queries != 5 || got.Config.Seed != 1 || got.Config.Scale != 0.005 {
		t.Errorf("config round-trip = %+v, want the -scale/-queries/-seed of the run", got.Config)
	}
	if len(got.Figures) != 1 || len(got.Figures[0].Rows) == 0 {
		t.Fatalf("report has %d figures, want 1 with rows", len(got.Figures))
	}
	if got.Figures[0].ID != "fig2a" || !got.Figures[0].Calibrated {
		t.Errorf("figure id/calibrated = %q/%v, want fig2a/true", got.Figures[0].ID, got.Figures[0].Calibrated)
	}
	if got.Figures[0].Dataset == "" || got.Figures[0].N == 0 {
		t.Errorf("figure metadata missing: %+v", got.Figures[0])
	}
}
