package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	hybridlsh "repro"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Metric = "l2"
	cfg.Dim = 12
	cfg.N = 1500
	cfg.Shards = 4
	cfg.Radius = 0.4
	cfg.Seed = 5
	cfg.Window = 128
	return cfg
}

func startServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends body as JSON and decodes the response into out, asserting
// the expected status.
func post(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg json.RawMessage
		json.NewDecoder(resp.Body).Decode(&msg)
		t.Fatalf("POST %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, msg)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
}

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding response: %v", url, err)
	}
}

func toFloats(p hybridlsh.Dense) []float64 {
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = float64(v)
	}
	return out
}

func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	slices.Sort(out)
	return out
}

// TestQueryEndToEnd is the acceptance check: /query against a 4-shard
// index must report exactly the unsharded ground-truth id set.
func TestQueryEndToEnd(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)
	// The seed dataset is deterministic in cfg.Seed, so the test can
	// regenerate it and compute exact ground truth locally.
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
		if len(truth) > 0 {
			nonEmpty++
		}
		if res.LSHShards+res.LinearShards != cfg.Shards {
			t.Errorf("query %d: strategy mix %d+%d, want %d shards", qi, res.LSHShards, res.LinearShards, cfg.Shards)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every query had empty ground truth; test instance broken")
	}
}

func TestBatchMatchesQuery(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)

	qs := make([][]float64, 5)
	for i := range qs {
		qs[i] = toFloats(points[i*11])
	}
	var batch struct {
		Results []QueryResult `json:"results"`
	}
	post(t, ts.URL+"/batch", map[string]any{"points": qs, "workers": 2}, http.StatusOK, &batch)
	if len(batch.Results) != len(qs) {
		t.Fatalf("got %d results, want %d", len(batch.Results), len(qs))
	}
	for i, q := range qs {
		var single QueryResult
		post(t, ts.URL+"/query", map[string]any{"point": q}, http.StatusOK, &single)
		if !slices.Equal(sortedIDs(batch.Results[i].IDs), sortedIDs(single.IDs)) {
			t.Errorf("batch[%d] ids diverge from /query", i)
		}
	}
}

func TestAppendDeleteStats(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)

	// Append two copies of a far-away probe; only they should be near it.
	probe := make([]float64, cfg.Dim)
	for i := range probe {
		probe[i] = 50
	}
	var app struct {
		IDs []int32 `json:"ids"`
		N   int     `json:"n"`
	}
	post(t, ts.URL+"/append", map[string]any{"points": [][]float64{probe, probe}}, http.StatusOK, &app)
	if len(app.IDs) != 2 || app.N != cfg.N+2 {
		t.Fatalf("append = %+v, want 2 ids and n = %d", app, cfg.N+2)
	}
	var res QueryResult
	post(t, ts.URL+"/query", map[string]any{"point": probe}, http.StatusOK, &res)
	if !slices.Equal(sortedIDs(res.IDs), sortedIDs(app.IDs)) {
		t.Fatalf("query after append = %v, want %v", res.IDs, app.IDs)
	}

	var del struct {
		Deleted int `json:"deleted"`
		N       int `json:"n"`
	}
	post(t, ts.URL+"/delete", map[string]any{"ids": app.IDs[:1]}, http.StatusOK, &del)
	if del.Deleted != 1 || del.N != cfg.N+1 {
		t.Fatalf("delete = %+v, want 1 deleted and n = %d", del, cfg.N+1)
	}
	post(t, ts.URL+"/query", map[string]any{"point": probe}, http.StatusOK, &res)
	if !slices.Equal(res.IDs, app.IDs[1:]) {
		t.Fatalf("query after delete = %v, want %v", res.IDs, app.IDs[1:])
	}

	var st struct {
		Shards     int    `json:"shards"`
		ShardSizes []int  `json:"shard_sizes"`
		Live       int    `json:"live"`
		Tombstones int    `json:"tombstones"`
		Queries    int64  `json:"queries"`
		Metric     string `json:"metric"`
		LatencyUS  struct {
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
			Count int64   `json:"count"`
		} `json:"latency_us"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.Shards != cfg.Shards || len(st.ShardSizes) != cfg.Shards {
		t.Errorf("stats topology = %+v, want %d shards", st, cfg.Shards)
	}
	if st.Live != cfg.N+1 || st.Tombstones != 1 {
		t.Errorf("stats live/tombstones = %d/%d, want %d/1", st.Live, st.Tombstones, cfg.N+1)
	}
	if st.Queries < 2 || st.LatencyUS.Count != st.Queries {
		t.Errorf("stats queries = %d, latency count = %d", st.Queries, st.LatencyUS.Count)
	}
	if st.LatencyUS.P50 <= 0 || st.LatencyUS.P99 < st.LatencyUS.P50 {
		t.Errorf("latency percentiles out of order: %+v", st.LatencyUS)
	}
}

func TestHealthz(t *testing.T) {
	ts := startServer(t, testConfig())
	var h struct {
		Status string `json:"status"`
	}
	get(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestHammingServer(t *testing.T) {
	cfg := testConfig()
	cfg.Metric = "hamming"
	cfg.Dim = 128
	cfg.N = 800
	cfg.Radius = 20 // co-prototype points differ by ≤ 16 bits: clean margin
	ts := startServer(t, cfg)
	points := seedBinary(cfg.N, cfg.Dim, cfg.Seed)

	q := points[3]
	bits := make([]int, cfg.Dim)
	for i := 0; i < cfg.Dim; i++ {
		if q.Bit(i) {
			bits[i] = 1
		}
	}
	truth := hybridlsh.GroundTruthHamming(points, q, cfg.Radius)
	var res QueryResult
	post(t, ts.URL+"/query", map[string]any{"point": bits}, http.StatusOK, &res)
	if !slices.Equal(sortedIDs(res.IDs), sortedIDs(truth)) {
		t.Fatalf("hamming query: served %d ids, ground truth %d", len(res.IDs), len(truth))
	}

	// Non-0/1 bit value is rejected.
	bits[0] = 2
	post(t, ts.URL+"/query", map[string]any{"point": bits}, http.StatusBadRequest, nil)
}

func TestBadRequests(t *testing.T) {
	cfg := testConfig()
	ts := startServer(t, cfg)

	for _, tc := range []struct {
		name string
		body any
	}{
		{"missing point", map[string]any{}},
		{"wrong dim", map[string]any{"point": []float64{1, 2}}},
		{"non-numeric", map[string]any{"point": "nope"}},
		{"unknown field", map[string]any{"point": make([]float64, cfg.Dim), "extra": 1}},
	} {
		post(t, ts.URL+"/query", tc.body, http.StatusBadRequest, nil)
	}
	post(t, ts.URL+"/batch", map[string]any{"points": [][]float64{}}, http.StatusBadRequest, nil)
	post(t, ts.URL+"/append", map[string]any{"points": [][]float64{{1}}}, http.StatusBadRequest, nil)

	// Wrong method on a POST-only route.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

func TestNewServerValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"bad metric", func(c *Config) { c.Metric = "cosine" }},
		{"zero shards", func(c *Config) { c.Shards = 0 }},
		{"zero dim", func(c *Config) { c.Dim = 0 }},
		{"n below shards", func(c *Config) { c.N = 2; c.Shards = 4 }},
	} {
		cfg := testConfig()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: newServer should fail", tc.name)
		}
	}
}

func toBits(p hybridlsh.Binary) []int {
	bits := make([]int, p.Dim)
	for i := 0; i < p.Dim; i++ {
		if p.Bit(i) {
			bits[i] = 1
		}
	}
	return bits
}

// TestSnapshotWarmRestart is the end-to-end persistence test: a server
// grows and mutates its index, snapshots it, and a second server booted
// from the snapshot answers queries and reports stats identically to
// the first server's pre-restart state.
func TestSnapshotWarmRestart(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = filepath.Join(t.TempDir(), "index.snap")
	ts := startServer(t, cfg)

	// Mutate the index so the snapshot covers appends and deletes: two
	// far-away probes appended, one of them tombstoned.
	probe := make([]float64, cfg.Dim)
	for i := range probe {
		probe[i] = 50
	}
	var app struct {
		IDs []int32 `json:"ids"`
	}
	post(t, ts.URL+"/append", map[string]any{"points": [][]float64{probe, probe}}, http.StatusOK, &app)
	post(t, ts.URL+"/delete", map[string]any{"ids": app.IDs[:1]}, http.StatusOK, nil)

	// Record pre-restart answers for a handful of queries.
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)
	queries := [][]float64{probe}
	for qi := 0; qi < 8; qi++ {
		queries = append(queries, toFloats(points[qi*41]))
	}
	before := make([][]int32, len(queries))
	for i, q := range queries {
		var res QueryResult
		post(t, ts.URL+"/query", map[string]any{"point": q}, http.StatusOK, &res)
		before[i] = sortedIDs(res.IDs)
	}
	var preStats struct {
		Live       int `json:"live"`
		Tombstones int `json:"tombstones"`
	}
	get(t, ts.URL+"/stats", &preStats)

	var snap struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
		Live  int    `json:"live"`
	}
	post(t, ts.URL+"/snapshot", nil, http.StatusOK, &snap)
	if snap.Path != cfg.Snapshot || snap.Bytes <= 0 || snap.Live != preStats.Live {
		t.Fatalf("snapshot response = %+v, want path %s and live %d", snap, cfg.Snapshot, preStats.Live)
	}

	// "Restart": a second server from the same Config finds the
	// snapshot and boots from it instead of rebuilding.
	ts2 := startServer(t, cfg)
	var postStats struct {
		Live       int  `json:"live"`
		Tombstones int  `json:"tombstones"`
		WarmStart  bool `json:"warm_start"`
	}
	get(t, ts2.URL+"/stats", &postStats)
	if !postStats.WarmStart {
		t.Fatal("restarted server did not boot from the snapshot")
	}
	if postStats.Live != preStats.Live {
		t.Fatalf("restarted live count %d, want %d", postStats.Live, preStats.Live)
	}
	// Tombstoned points are compacted out of the snapshot, so the
	// restarted server reports them via the preserved tombstone set.
	if postStats.Tombstones != preStats.Tombstones {
		t.Fatalf("restarted tombstones %d, want %d", postStats.Tombstones, preStats.Tombstones)
	}
	for i, q := range queries {
		var res QueryResult
		post(t, ts2.URL+"/query", map[string]any{"point": q}, http.StatusOK, &res)
		if !slices.Equal(sortedIDs(res.IDs), before[i]) {
			t.Fatalf("query %d after restart: ids %v, want %v", i, res.IDs, before[i])
		}
	}
	// The surviving probe is still there, the tombstoned one still gone.
	var res QueryResult
	post(t, ts2.URL+"/query", map[string]any{"point": probe}, http.StatusOK, &res)
	if !slices.Equal(res.IDs, app.IDs[1:]) {
		t.Fatalf("probe query after restart = %v, want %v", res.IDs, app.IDs[1:])
	}

	// Appends on the restarted server continue the id sequence.
	var app2 struct {
		IDs []int32 `json:"ids"`
	}
	post(t, ts2.URL+"/append", map[string]any{"points": [][]float64{probe}}, http.StatusOK, &app2)
	if len(app2.IDs) != 1 || app2.IDs[0] != app.IDs[1]+1 {
		t.Fatalf("append after restart = %v, want id %d", app2.IDs, app.IDs[1]+1)
	}
}

// TestSnapshotEndpointValidation covers the /snapshot error paths.
func TestSnapshotEndpointValidation(t *testing.T) {
	// Without -snapshot the endpoint refuses: the write path must be
	// operator-configured, never client-supplied.
	ts := startServer(t, testConfig())
	post(t, ts.URL+"/snapshot", nil, http.StatusBadRequest, nil)

	// A client-supplied path is ignored, not honored.
	adhoc := filepath.Join(t.TempDir(), "adhoc.snap")
	post(t, ts.URL+"/snapshot", map[string]any{"path": adhoc}, http.StatusBadRequest, nil)
	if _, err := os.Stat(adhoc); err == nil {
		t.Fatal("client-supplied snapshot path was written")
	}

	// An unwritable configured path reports a server-side error.
	cfg := testConfig()
	cfg.Snapshot = "/nonexistent-dir/x.snap"
	ts2 := startServer(t, cfg)
	post(t, ts2.URL+"/snapshot", nil, http.StatusInternalServerError, nil)
}

// TestSnapshotHammingRestart exercises the binary-point warm-restart
// path too.
func TestSnapshotHammingRestart(t *testing.T) {
	cfg := testConfig()
	cfg.Metric = "hamming"
	cfg.Dim = 64
	cfg.Radius = 8
	cfg.Snapshot = filepath.Join(t.TempDir(), "ham.snap")
	ts := startServer(t, cfg)

	points := seedBinary(cfg.N, cfg.Dim, cfg.Seed)
	q := toBits(points[7])
	var before QueryResult
	post(t, ts.URL+"/query", map[string]any{"point": q}, http.StatusOK, &before)
	post(t, ts.URL+"/snapshot", nil, http.StatusOK, nil)

	ts2 := startServer(t, cfg)
	var after QueryResult
	post(t, ts2.URL+"/query", map[string]any{"point": q}, http.StatusOK, &after)
	if !slices.Equal(sortedIDs(after.IDs), sortedIDs(before.IDs)) {
		t.Fatalf("hamming restart: ids %v != %v", after.IDs, before.IDs)
	}
}

// TestCompactEndpoint tombstones enough points to skew the index, then
// compacts over HTTP: answers must be unchanged, the stats counters
// must report the compaction, and the dead points must leave the
// buckets (visible as shrunk shard sizes).
func TestCompactEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.CompactThresh = 1 // drive compaction via the endpoint, not the trigger
	ts := startServer(t, cfg)

	q := map[string]any{"point": toFloats(seedDense(1, cfg.Dim, cfg.Seed)[0])}
	var pre QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &pre)

	ids := make([]int32, 0, cfg.N/4)
	for id := int32(0); int(id) < cfg.N; id += 4 {
		ids = append(ids, id)
	}
	var delResp struct {
		Deleted int `json:"deleted"`
	}
	post(t, ts.URL+"/delete", map[string]any{"ids": ids}, http.StatusOK, &delResp)
	if delResp.Deleted != len(ids) {
		t.Fatalf("deleted %d, want %d", delResp.Deleted, len(ids))
	}
	var tombstoned QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &tombstoned)

	var compacted struct {
		Removed          int     `json:"removed"`
		Live             int     `json:"live"`
		DeadInBuckets    int     `json:"dead_in_buckets"`
		CompactionsTotal int64   `json:"compactions_total"`
		CompactMS        float64 `json:"compact_ms"`
	}
	post(t, ts.URL+"/compact", map[string]any{}, http.StatusOK, &compacted)
	if compacted.Removed != len(ids) {
		t.Fatalf("compact removed %d, want %d", compacted.Removed, len(ids))
	}
	if compacted.DeadInBuckets != 0 {
		t.Fatalf("dead_in_buckets = %d after compaction", compacted.DeadInBuckets)
	}
	// Only shard 0 held dead points (build ids land round-robin, and we
	// deleted ids ≡ 0 mod shards); no-op compactions of clean shards
	// don't count.
	if compacted.CompactionsTotal != 1 {
		t.Fatalf("compactions_total = %d, want 1", compacted.CompactionsTotal)
	}
	if want := cfg.N - len(ids); compacted.Live != want {
		t.Fatalf("live = %d, want %d", compacted.Live, want)
	}

	var post1 QueryResult
	post(t, ts.URL+"/query", q, http.StatusOK, &post1)
	if !slices.Equal(sortedIDs(post1.IDs), sortedIDs(tombstoned.IDs)) {
		t.Fatalf("answers changed across compaction: %v != %v", sortedIDs(post1.IDs), sortedIDs(tombstoned.IDs))
	}

	var st struct {
		ShardSizes []int `json:"shard_sizes"`
		Tombstones int   `json:"tombstones"`
		Compaction struct {
			Total     int64   `json:"total"`
			PerShard  []int64 `json:"per_shard"`
			DeadTotal int     `json:"dead_total"`
			Threshold float64 `json:"threshold"`
		} `json:"compaction"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.Compaction.Total != 1 || st.Compaction.DeadTotal != 0 {
		t.Fatalf("stats compaction = %+v, want total 1, dead 0", st.Compaction)
	}
	if st.Tombstones != len(ids) {
		t.Fatalf("tombstones = %d, want %d (ids stay reserved)", st.Tombstones, len(ids))
	}
	total := 0
	for _, s := range st.ShardSizes {
		total += s
	}
	if want := cfg.N - len(ids); total != want {
		t.Fatalf("shard sizes sum to %d after compaction, want %d", total, want)
	}

	// Single-shard form plus validation.
	var one struct {
		Removed int `json:"removed"`
	}
	post(t, ts.URL+"/compact", map[string]any{"shard": 0}, http.StatusOK, &one)
	if one.Removed != 0 {
		t.Fatalf("re-compacting shard 0 removed %d, want 0", one.Removed)
	}
	post(t, ts.URL+"/compact", map[string]any{"shard": cfg.Shards}, http.StatusBadRequest, nil)
	post(t, ts.URL+"/compact", map[string]any{"shard": -2}, http.StatusBadRequest, nil)
	post(t, ts.URL+"/compact", map[string]any{"bogus": 1}, http.StatusBadRequest, nil)
}

// TestAutoCompactOverHTTP deletes past the configured threshold and
// expects the server to compact on its own.
func TestAutoCompactOverHTTP(t *testing.T) {
	cfg := testConfig()
	cfg.CompactThresh = 0.2
	ts := startServer(t, cfg)

	// Build points land round-robin, so every 4th id is one shard.
	ids := make([]int32, 0, cfg.N/4)
	for id := int32(0); int(id) < cfg.N; id += 4 {
		ids = append(ids, id) // 100% of shard 0: far past 20%
	}
	post(t, ts.URL+"/delete", map[string]any{"ids": ids}, http.StatusOK, nil)

	var st struct {
		Compaction struct {
			Total     int64 `json:"total"`
			DeadTotal int   `json:"dead_total"`
		} `json:"compaction"`
	}
	get(t, ts.URL+"/stats", &st)
	if st.Compaction.Total == 0 {
		t.Fatal("delete past the threshold did not auto-compact")
	}
	if st.Compaction.DeadTotal != 0 {
		t.Fatalf("dead_total = %d after auto-compaction", st.Compaction.DeadTotal)
	}
}

// TestMaxBodyCap asserts the -maxbody satellite: every endpoint rejects
// an oversized body with 413 and a JSON error payload.
func TestMaxBodyCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBody = 512
	ts := startServer(t, cfg)

	huge := make([]float64, 4096) // ~9 KiB of JSON, far past 512 bytes
	for _, path := range []string{"/query", "/batch", "/append", "/delete", "/compact"} {
		b, err := json.Marshal(map[string]any{"point": huge, "points": [][]float64{huge}, "ids": []int32{1}})
		if err != nil {
			t.Fatal(err)
		}
		// Build per-path bodies that are oversized but would otherwise
		// decode; the cap must fire first.
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s oversized: status %d, want 413", path, resp.StatusCode)
		}
		if err != nil || out.Error == "" {
			t.Fatalf("POST %s oversized: want a JSON error body, got decode err %v", path, err)
		}
	}

	// A small request must still work under the cap.
	q := map[string]any{"point": toFloats(seedDense(1, cfg.Dim, cfg.Seed)[0])}
	post(t, ts.URL+"/query", q, http.StatusOK, nil)
}
