package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestRunRejectsBadSizes: a -queries below 1 or a -scale that is not
// above 0 is refused, naming the flag, before the report file is
// created.
func TestRunRejectsBadSizes(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-queries", "0"}, {"-queries", "-3"}, {"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"},
		{"-runs", "0"}, {"-runs", "-2"},
	} {
		path := filepath.Join(t.TempDir(), "x.json")
		err := cli(tiny("fig2a", c.flag, c.value, "-json", path))
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s %s: err = %v, want one naming %s", c.flag, c.value, err, c.flag)
		}
		noFile(t, path)
	}
}

// TestQueriesBeyondDataset: a query set that would take every point of
// a dataset fails the experiment with an error naming -queries and the
// dataset's size, and leaves no report, instead of running on fewer
// queries than the report records.
func TestQueriesBeyondDataset(t *testing.T) {
	for _, exp := range []string{"fig2a", "quant"} {
		path := filepath.Join(t.TempDir(), "x.json")
		err := cli(tiny(exp, "-queries", "100000", "-json", path))
		if err == nil || !strings.Contains(err.Error(), "-queries 100000") || !strings.Contains(err.Error(), "points") {
			t.Errorf("%s: err = %v, want one naming -queries and the dataset's size", exp, err)
		}
		noFile(t, path)
	}
}

// TestFailedRunLeavesNoReport: an experiment that fails or panics after
// the report file was opened removes the file rather than leaving it
// empty or partial; the panic still reaches the caller.
func TestFailedRunLeavesNoReport(t *testing.T) {
	saved := experiments
	t.Cleanup(func() { experiments = saved })
	experiments = append(slices.Clip(saved),
		experiment{"fails", func(env) error { return errors.New("experiment failed") }},
		experiment{"panics", func(env) error { panic("experiment panicked") }})

	path := filepath.Join(t.TempDir(), "x.json")
	if err := cli(tiny("fails", "-json", path)); err == nil {
		t.Error("a failing experiment's run succeeded")
	}
	noFile(t, path)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("a panicking experiment's panic did not reach the caller")
			}
		}()
		cli(tiny("panics", "-json", path))
	}()
	noFile(t, path)
}

func TestRunSingleFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	for _, exp := range []string{"fig2a", "fig2d", "fig3"} {
		if err := cli(tiny(exp)); err != nil {
			t.Errorf("-exp %s: %v", exp, err)
		}
	}
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	if err := cli(tiny("table1")); err != nil {
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
