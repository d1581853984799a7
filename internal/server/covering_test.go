package server

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	hybridlsh "repro"
	"repro/internal/persist"
)

func coveringConfig() Config {
	cfg := DefaultConfig()
	cfg.Metric = "hamming"
	cfg.Dim = 64
	cfg.N = 1500
	cfg.Shards = 4
	cfg.CoverRadius = 3
	cfg.Seed = 5
	cfg.Window = 128
	return cfg
}

// TestCoveringQueryEndToEnd: a -radius server must answer exact ground
// truth (recall 1.0 — the covering guarantee), report the effective
// radius, accept per-request narrowing and reject widening.
func TestCoveringQueryEndToEnd(t *testing.T) {
	cfg := coveringConfig()
	ts := startServer(t, cfg)
	points := seedBinary(cfg.N, cfg.Dim, cfg.Seed)

	for qi := 0; qi < 10; qi++ {
		q := points[qi*37]
		truth := hybridlsh.GroundTruth(hybridlsh.Hamming, points, q, float64(cfg.CoverRadius))
		var res QueryResult
		post(t, ts.URL+"/query", map[string]any{"point": toBits(q)}, http.StatusOK, &res)
		if !slices.Equal(sortedIDs(res.IDs), sortedIDs(truth)) {
			t.Errorf("query %d: served ids (%d) != exact ground truth (%d) — the guarantee broke", qi, len(res.IDs), len(truth))
		}
		if res.Radius == nil || *res.Radius != cfg.CoverRadius {
			t.Errorf("query %d: response radius = %v, want %d", qi, res.Radius, cfg.CoverRadius)
		}

		// Narrowing: radius 1 must be the exact radius-1 report.
		narrow := hybridlsh.GroundTruth(hybridlsh.Hamming, points, q, 1)
		var nres QueryResult
		post(t, ts.URL+"/query", map[string]any{"point": toBits(q), "radius": 1}, http.StatusOK, &nres)
		if !slices.Equal(sortedIDs(nres.IDs), sortedIDs(narrow)) {
			t.Errorf("query %d: radius=1 override != radius-1 ground truth", qi)
		}
		if nres.Radius == nil || *nres.Radius != 1 {
			t.Errorf("query %d: override response radius = %v, want 1", qi, nres.Radius)
		}
	}

	// Widening past the built radius loses the guarantee: rejected, not
	// clamped.
	const exceeds = "radius = 4 exceeds the built covering radius 3 (the no-false-negatives guarantee stops there)"
	for _, c := range []struct {
		path string
		body map[string]any
		want string
	}{
		{"/query", map[string]any{"point": toBits(points[0]), "radius": cfg.CoverRadius + 1}, exceeds},
		{"/batch", map[string]any{"points": []any{toBits(points[0])}, "radius": cfg.CoverRadius + 1}, exceeds},
		{"/query", map[string]any{"point": toBits(points[0]), "radius": -1}, "radius = -1, want >= 0"},
	} {
		var out map[string]string
		post(t, ts.URL+c.path, c.body, http.StatusBadRequest, &out)
		if out["error"] != c.want {
			t.Errorf("%s %v: error = %q, want %q", c.path, c.body["radius"], out["error"], c.want)
		}
	}

	// Batch with an override.
	var batch struct {
		Results []QueryResult `json:"results"`
	}
	post(t, ts.URL+"/batch", map[string]any{
		"points": []any{toBits(points[0]), toBits(points[37])}, "radius": 2,
	}, http.StatusOK, &batch)
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Radius == nil || *r.Radius != 2 {
			t.Errorf("batch result %d radius = %v, want 2", i, r.Radius)
		}
	}

	// Covering counters in /stats: 20 single queries (10 default + 10
	// narrowed) + 2 batch members covered; 12 carried an override.
	var st struct {
		Covering struct {
			Enabled         bool  `json:"enabled"`
			Radius          int   `json:"radius"`
			Tables          int   `json:"tables"`
			CoveredQueries  int64 `json:"covered_queries"`
			OverrideQueries int64 `json:"override_queries"`
		} `json:"covering"`
	}
	get(t, ts.URL+"/stats", &st)
	if !st.Covering.Enabled || st.Covering.Radius != cfg.CoverRadius {
		t.Fatalf("stats covering = %+v, want enabled with r=%d", st.Covering, cfg.CoverRadius)
	}
	if want := 1<<(cfg.CoverRadius+1) - 1; st.Covering.Tables != want {
		t.Errorf("stats covering tables = %d, want %d", st.Covering.Tables, want)
	}
	if st.Covering.CoveredQueries != 22 {
		t.Errorf("covered_queries = %d, want 22", st.Covering.CoveredQueries)
	}
	if st.Covering.OverrideQueries != 12 {
		t.Errorf("override_queries = %d, want 12", st.Covering.OverrideQueries)
	}
}

// TestCoveringRadiusRejectedOnClassic: classic servers must reject the
// "radius" field instead of silently ignoring it, on both metrics.
func TestCoveringRadiusRejectedOnClassic(t *testing.T) {
	hcfg := coveringConfig()
	hcfg.CoverRadius = 0 // classic hamming
	hts := startServer(t, hcfg)
	points := seedBinary(hcfg.N, hcfg.Dim, hcfg.Seed)
	lcfg := testConfig() // classic l2
	lts := startServer(t, lcfg)
	dense := seedDense(lcfg.N, lcfg.Dim, lcfg.Seed)
	const want = `"radius" is only supported when the server runs a covering index (start with -radius)`
	for _, c := range []struct {
		url  string
		body map[string]any
	}{
		{hts.URL + "/query", map[string]any{"point": toBits(points[0]), "radius": 2}},
		{hts.URL + "/batch", map[string]any{"points": []any{toBits(points[0])}, "radius": 2}},
		{lts.URL + "/query", map[string]any{"point": toFloats(dense[0]), "radius": 2}},
		{lts.URL + "/batch", map[string]any{"points": []any{toFloats(dense[0])}, "radius": 2}},
	} {
		var out map[string]string
		post(t, c.url, c.body, http.StatusBadRequest, &out)
		if out["error"] != want {
			t.Errorf("%s: error = %q, want %q", c.url, out["error"], want)
		}
	}

	// And /stats reports the mode as disabled.
	var st struct {
		Covering struct {
			Enabled bool `json:"enabled"`
		} `json:"covering"`
	}
	get(t, hts.URL+"/stats", &st)
	if st.Covering.Enabled {
		t.Fatal("classic server reports covering enabled")
	}
}

// TestCoveringFlagValidation: the covering mode composes with neither
// multi-probe nor non-Hamming metrics.
func TestCoveringFlagValidation(t *testing.T) {
	cfg := coveringConfig()
	cfg.Metric = "l2"
	if _, err := New(cfg); err == nil {
		t.Error("covering l2 server accepted")
	}
	cfg = coveringConfig()
	cfg.Probes = 4
	if _, err := New(cfg); err == nil {
		t.Error("covering + multi-probe server accepted")
	}
	cfg = coveringConfig()
	cfg.CoverRadius = 99
	if _, err := New(cfg); err == nil {
		t.Error("radius past the package cap accepted")
	}
}

// TestCoveringSnapshotWarmRestart: the snapshot records the covering
// parameters, so a restarted server keeps the guarantee with identical
// answers — even when the boot flags say otherwise.
func TestCoveringSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "index.snap")

	cfg := coveringConfig()
	cfg.Snapshot = snap
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := seedBinary(cfg.N, cfg.Dim, cfg.Seed)

	// Delete some points so the restart must preserve tombstones too,
	// then snapshot.
	s1.be.store().Delete([]int32{3, 5, 8, 13, 21})
	if _, err := persist.WriteFileAtomic(snap, s1.be.streamSnapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal(err)
	}

	pre := make([][]int32, 8)
	for qi := range pre {
		res, err := s1.Query(mustRaw(t, toBits(points[qi*41])), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pre[qi] = sortedIDs(res.IDs)
	}

	// Boot a second server from the snapshot with classic flags: the
	// snapshot must win and restore the covering mode.
	cfg2 := coveringConfig()
	cfg2.Snapshot = snap
	cfg2.CoverRadius = 0
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.loadedFrom != snap {
		t.Fatalf("second server did not warm-start (loadedFrom = %q)", s2.loadedFrom)
	}
	if s2.cfg.CoverRadius != cfg.CoverRadius {
		t.Fatalf("restored covering radius = %d, want %d", s2.cfg.CoverRadius, cfg.CoverRadius)
	}
	for qi := range pre {
		res, err := s2.Query(mustRaw(t, toBits(points[qi*41])), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedIDs(res.IDs), pre[qi]) {
			t.Fatalf("query %d: restored answers differ from live answers", qi)
		}
		if res.Radius == nil || *res.Radius != cfg.CoverRadius {
			t.Fatalf("query %d: restored server answered with radius = %v, want %d", qi, res.Radius, cfg.CoverRadius)
		}
	}
}

// TestCoveringReplicasHydrate: a covering snapshot restores the mode on
// both replica boot paths — -hydrate <path> reading the file and
// -hydrate <url> reading the writer's GET /snapshot stream, which cannot
// be rewound — with classic boot flags, answering id-identically to the
// writer.
func TestCoveringReplicasHydrate(t *testing.T) {
	cfg := coveringConfig()
	cfg.Snapshot = filepath.Join(t.TempDir(), "index.snap")
	writer := startServer(t, cfg)
	post(t, writer.URL+"/snapshot", map[string]any{}, http.StatusOK, nil)
	points := seedBinary(cfg.N, cfg.Dim, cfg.Seed)

	for _, source := range []string{cfg.Snapshot, writer.URL} {
		rcfg := coveringConfig()
		rcfg.CoverRadius = 0
		rcfg.Hydrate = source
		s, rep := startReplicaServer(t, rcfg)
		if s.cfg.CoverRadius != cfg.CoverRadius {
			t.Fatalf("replica of %s restored covering radius %d, want %d", source, s.cfg.CoverRadius, cfg.CoverRadius)
		}
		for qi := 0; qi < 8; qi++ {
			var want, got QueryResult
			body := map[string]any{"point": toBits(points[qi*41]), "radius": 2}
			post(t, writer.URL+"/query", body, http.StatusOK, &want)
			post(t, rep.URL+"/query", body, http.StatusOK, &got)
			if !slices.Equal(sortedIDs(got.IDs), sortedIDs(want.IDs)) {
				t.Fatalf("replica of %s, query %d: answers differ from the writer's", source, qi)
			}
			if got.Radius == nil || *got.Radius != 2 {
				t.Fatalf("replica of %s, query %d: radius = %v, want 2", source, qi, got.Radius)
			}
		}
	}
}
