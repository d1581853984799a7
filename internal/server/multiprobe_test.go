package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	hybridlsh "repro"
	"repro/internal/persist"
)

// mustRaw marshals a point into the raw JSON form the backend parses.
func mustRaw(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func multiProbeConfig() Config {
	cfg := testConfig()
	cfg.Probes = 16
	cfg.Tables = 10
	return cfg
}

// TestMultiProbeQueryEndToEnd: a -probes server must answer ground
// truth on the clustered seed data, report the effective T, and accept
// per-request overrides.
func TestMultiProbeQueryEndToEnd(t *testing.T) {
	cfg := multiProbeConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)

	nonEmpty := 0
	for qi := 0; qi < 10; qi++ {
		q := points[qi*37]
		truth := hybridlsh.GroundTruth(points, q, cfg.Radius)
		var res QueryResult
		post(t, ts.URL+"/query", map[string]any{"point": toFloats(q)}, http.StatusOK, &res)
		if !slices.Equal(sortedIDs(res.IDs), sortedIDs(truth)) {
			t.Errorf("query %d: served ids (%d) != ground truth (%d)", qi, len(res.IDs), len(truth))
		}
		if res.Probes == nil || *res.Probes != cfg.Probes {
			t.Errorf("query %d: response probes = %v, want %d", qi, res.Probes, cfg.Probes)
		}
		if len(truth) > 0 {
			nonEmpty++
		}

		// Override: a wider probe set must still be exact here, and the
		// response must echo the effective T.
		var wide QueryResult
		post(t, ts.URL+"/query", map[string]any{"point": toFloats(q), "probes": 32}, http.StatusOK, &wide)
		if !slices.Equal(sortedIDs(wide.IDs), sortedIDs(truth)) {
			t.Errorf("query %d: T=32 override != ground truth", qi)
		}
		if wide.Probes == nil || *wide.Probes != 32 {
			t.Errorf("query %d: override response probes = %v, want 32", qi, wide.Probes)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every query had empty ground truth; test instance broken")
	}

	// Batch with an override.
	q0, q1 := points[0], points[37]
	var batch struct {
		Results []QueryResult `json:"results"`
	}
	post(t, ts.URL+"/batch", map[string]any{
		"points": []any{toFloats(q0), toFloats(q1)}, "probes": 16,
	}, http.StatusOK, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Probes == nil || *r.Probes != 16 {
			t.Errorf("batch result %d probes = %v, want 16", i, r.Probes)
		}
	}

	// Probe counters in /stats: 20 single queries + 10 overrides + 2
	// batch members, all probed.
	var st struct {
		MultiProbe struct {
			Enabled         bool  `json:"enabled"`
			Probes          int   `json:"probes"`
			ProbedQueries   int64 `json:"probed_queries"`
			ProbesUsedTotal int64 `json:"probes_used_total"`
			OverrideQueries int64 `json:"override_queries"`
		} `json:"multiprobe"`
	}
	get(t, ts.URL+"/stats", &st)
	if !st.MultiProbe.Enabled || st.MultiProbe.Probes != cfg.Probes {
		t.Fatalf("stats multiprobe = %+v, want enabled with T=%d", st.MultiProbe, cfg.Probes)
	}
	if st.MultiProbe.ProbedQueries != 22 {
		t.Errorf("probed_queries = %d, want 22", st.MultiProbe.ProbedQueries)
	}
	if st.MultiProbe.OverrideQueries != 12 {
		t.Errorf("override_queries = %d, want 12", st.MultiProbe.OverrideQueries)
	}
	if want := int64(10*cfg.Probes + 10*32 + 2*16); st.MultiProbe.ProbesUsedTotal != want {
		t.Errorf("probes_used_total = %d, want %d", st.MultiProbe.ProbesUsedTotal, want)
	}
}

// TestMultiProbeOverrideRejectedOnClassic: a classic server must reject
// the "probes" field instead of silently ignoring it.
func TestMultiProbeOverrideRejectedOnClassic(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)
	const want = `"probes" is only supported when the server runs a multi-probe index (start with -probes)`
	for path, body := range map[string]map[string]any{
		"/query": {"point": toFloats(points[0]), "probes": 5},
		"/batch": {"points": []any{toFloats(points[0])}, "probes": 5},
	} {
		var out map[string]string
		post(t, ts.URL+path, body, http.StatusBadRequest, &out)
		if out["error"] != want {
			t.Errorf("%s: error = %q, want %q", path, out["error"], want)
		}
	}

	// And /stats reports the mode as disabled.
	var st struct {
		MultiProbe struct {
			Enabled bool `json:"enabled"`
		} `json:"multiprobe"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.MultiProbe.Enabled {
		t.Fatal("classic server reports multiprobe enabled")
	}
}

func TestMultiProbeBadOverrides(t *testing.T) {
	cfg := multiProbeConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)
	var out map[string]any
	post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[0]), "probes": -1},
		http.StatusBadRequest, &out)
	// Oversized overrides are clamped, not rejected.
	var res QueryResult
	post(t, ts.URL+"/query", map[string]any{"point": toFloats(points[0]), "probes": maxProbeOverride * 10},
		http.StatusOK, &res)
	if res.Probes == nil || *res.Probes != maxProbeOverride {
		t.Fatalf("huge override answered with probes = %v, want clamp to %d", res.Probes, maxProbeOverride)
	}
}

// TestMultiProbeSnapshotWarmRestart: the snapshot records the probe
// configuration, so a restarted server keeps serving multi-probe with
// identical answers — even when the boot flags say otherwise.
func TestMultiProbeSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "index.snap")

	cfg := multiProbeConfig()
	cfg.Snapshot = snap
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)

	// Delete some points so the restart must preserve tombstones too,
	// then snapshot.
	del := []int32{3, 5, 8, 13, 21}
	s1.be.store().Delete(del)
	if _, err := persist.WriteFileAtomic(snap, s1.be.streamSnapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}

	pre := make([][]int32, 8)
	for qi := range pre {
		res, err := s1.be.query(mustRaw(t, toFloats(points[qi*41])), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pre[qi] = sortedIDs(res.IDs)
	}

	// Boot a second server from the snapshot with classic flags: the
	// snapshot must win and restore the multi-probe mode.
	cfg2 := testConfig()
	cfg2.Snapshot = snap
	cfg2.Probes = 0
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.loadedFrom != snap {
		t.Fatalf("second server did not warm-start (loadedFrom = %q)", s2.loadedFrom)
	}
	if s2.cfg.Probes != cfg.Probes {
		t.Fatalf("restored probes = %d, want %d", s2.cfg.Probes, cfg.Probes)
	}
	for qi := range pre {
		res, err := s2.be.query(mustRaw(t, toFloats(points[qi*41])), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedIDs(res.IDs), pre[qi]) {
			t.Fatalf("query %d: restored answers differ from live answers", qi)
		}
		if res.Probes == nil || *res.Probes != cfg.Probes {
			t.Fatalf("query %d: restored server answered with probes = %v, want %d", qi, res.Probes, cfg.Probes)
		}
	}
}

// TestModeFlagContradictsSnapshot: unset mode flags let the snapshot
// decide (the warm-restart tests), but a set one the file contradicts is
// refused at boot with the typed persist error instead of being served in
// another mode.
func TestModeFlagContradictsSnapshot(t *testing.T) {
	for _, c := range []struct {
		name    string
		classic Config
		demand  func(*Config)
		want    error
	}{
		{"probes over classic l2", testConfig(), func(c *Config) { c.Probes = 4 }, persist.ErrProbeMode},
		{"radius over classic hamming", func() Config { c := coveringConfig(); c.CoverRadius = 0; return c }(),
			func(c *Config) { c.CoverRadius = 3 }, persist.ErrCoverMode},
	} {
		cfg := c.classic
		cfg.Snapshot = filepath.Join(t.TempDir(), "index.snap")
		s1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := persist.WriteFileAtomic(cfg.Snapshot, s1.be.streamSnapshot); err != nil {
			t.Fatal(err)
		}
		c.demand(&cfg)
		if _, err := New(cfg); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}
