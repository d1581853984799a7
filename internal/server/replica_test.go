package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/replica"
)

// startReplicaServer boots a server and also tears down its follower
// tail loop, which plain startServer never starts (writers and static
// replicas have none).
func startReplicaServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if stop := s.role.Load().stopTail; stop != nil {
			stop()
		}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// queryIDs posts one query point and returns the sorted answer ids.
func queryIDs(t *testing.T, url string, point []float64) []int32 {
	t.Helper()
	var res struct {
		IDs []int32 `json:"ids"`
	}
	post(t, url+"/query", map[string]any{"point": point}, http.StatusOK, &res)
	slices.Sort(res.IDs)
	return res.IDs
}

// waitReplicaSeq polls the replica's status endpoint until it reports
// the wanted epoch and sequence number.
func waitReplicaSeq(t *testing.T, url string, epoch, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st replica.StatusResponse
		get(t, url+"/replica/status", &st)
		if st.Epoch == epoch && st.Seq >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d seq %d, want epoch %d seq >= %d", st.Epoch, st.Seq, epoch, seq)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaHydratesAndConverges is the binary-level tentpole check:
// a second hybridserve started with -hydrate <writer URL> hydrates from
// the writer's snapshot, tails its delta log through appends, deletes
// and a compaction, and answers every query id-identically — while
// rejecting direct writes.
func TestReplicaHydratesAndConverges(t *testing.T) {
	cfg := testConfig()
	cfg.N = 800
	writer := startServer(t, cfg)

	rcfg := testConfig()
	rcfg.Hydrate = writer.URL
	_, rep := startReplicaServer(t, rcfg)

	points := seedDense(cfg.N+40, cfg.Dim, cfg.Seed)
	queries := points[:16]

	// Converged from the snapshot alone.
	for i, q := range queries {
		want := queryIDs(t, writer.URL, toFloats(q))
		got := queryIDs(t, rep.URL, toFloats(q))
		if !slices.Equal(got, want) {
			t.Fatalf("query %d before writes: replica %v, writer %v", i, got, want)
		}
	}

	// Mutate the writer: append, delete some of the new ids, compact.
	var app struct {
		IDs []int32 `json:"ids"`
	}
	raw := make([][]float64, 40)
	for i, p := range points[cfg.N:] {
		raw[i] = toFloats(p)
	}
	post(t, writer.URL+"/append", map[string]any{"points": raw}, http.StatusOK, &app)
	if len(app.IDs) != 40 {
		t.Fatalf("appended %d ids, want 40", len(app.IDs))
	}
	post(t, writer.URL+"/delete", map[string]any{"ids": app.IDs[:13]}, http.StatusOK, nil)
	post(t, writer.URL+"/compact", map[string]any{}, http.StatusOK, nil)

	var src replica.StatusResponse
	get(t, writer.URL+"/replica/status", &src)
	if src.Role != "source" || src.Seq == 0 {
		t.Fatalf("writer status = %+v, want role source with journaled frames", src)
	}
	waitReplicaSeq(t, rep.URL, src.Epoch, src.Seq)

	// Converged after the whole mutation batch, id for id.
	for i, q := range queries {
		want := queryIDs(t, writer.URL, toFloats(q))
		got := queryIDs(t, rep.URL, toFloats(q))
		if !slices.Equal(got, want) {
			t.Fatalf("query %d after writes: replica %v, writer %v", i, got, want)
		}
	}
	// And the new points are actually findable through the replica.
	if ids := queryIDs(t, rep.URL, raw[39]); !slices.Contains(ids, app.IDs[39]) {
		t.Fatalf("replica query for appended point: %v does not contain id %d", ids, app.IDs[39])
	}

	// Replicas take no direct writes.
	post(t, rep.URL+"/append", map[string]any{"points": raw[:1]}, http.StatusForbidden, nil)
	post(t, rep.URL+"/delete", map[string]any{"ids": app.IDs[:1]}, http.StatusForbidden, nil)

	var st struct {
		Replication map[string]any `json:"replication"`
	}
	get(t, rep.URL+"/stats", &st)
	if st.Replication["role"] != "follower" || st.Replication["read_only"] != true {
		t.Fatalf("replica /stats replication = %v, want read-only follower", st.Replication)
	}
}

// TestStaticReplicaFromSnapshotPath covers -hydrate with a file path: a
// read-only replica pinned to a snapshot, answering id-identically to
// the server that wrote it.
func TestStaticReplicaFromSnapshotPath(t *testing.T) {
	cfg := testConfig()
	cfg.N = 600
	cfg.Snapshot = t.TempDir() + "/snap.bin"
	writer := startServer(t, cfg)
	post(t, writer.URL+"/snapshot", map[string]any{}, http.StatusOK, nil)

	rcfg := testConfig()
	rcfg.Hydrate = cfg.Snapshot
	_, rep := startReplicaServer(t, rcfg)

	queries := seedDense(16, cfg.Dim, cfg.Seed)
	for i, q := range queries {
		want := queryIDs(t, writer.URL, toFloats(q))
		got := queryIDs(t, rep.URL, toFloats(q))
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: static replica %v, writer %v", i, got, want)
		}
	}

	post(t, rep.URL+"/compact", map[string]any{}, http.StatusForbidden, nil)
	var st replica.StatusResponse
	get(t, rep.URL+"/replica/status", &st)
	if st.Role != "static" {
		t.Fatalf("static replica status role = %q, want static", st.Role)
	}
}

// TestHydrateFlagValidation pins the flag-combination rejections.
func TestHydrateFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *Config)
	}{
		{"with-snapshot", func(c *Config) { c.Hydrate = "http://localhost:1"; c.Snapshot = "x.bin" }},
		{"with-cache", func(c *Config) { c.Hydrate = "http://localhost:1"; c.CacheSize = 64 }},
		{"missing-file", func(c *Config) { c.Hydrate = t.TempDir() + "/nope.bin" }},
		{"negative-deltalog", func(c *Config) { c.LogCap = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("newServer accepted an invalid -hydrate combination")
			}
		})
	}
}

// TestWriterStatsReportSource checks that a plain writer exposes its
// journal cursor through /stats and /replica/status.
func TestWriterStatsReportSource(t *testing.T) {
	cfg := testConfig()
	cfg.N = 400
	writer := startServer(t, cfg)

	var st struct {
		Replication map[string]any `json:"replication"`
	}
	get(t, writer.URL+"/stats", &st)
	if st.Replication["role"] != "source" || st.Replication["read_only"] != false {
		t.Fatalf("writer /stats replication = %v, want writable source", st.Replication)
	}
	epoch, ok := st.Replication["epoch"].(float64)
	if !ok || epoch == 0 {
		t.Fatalf("writer epoch = %v, want a nonzero process stamp", st.Replication["epoch"])
	}

	// One append -> one journaled frame, visible on the status endpoint.
	p := toFloats(seedDense(1, cfg.Dim, 99)[0])
	post(t, writer.URL+"/append", map[string]any{"points": [][]float64{p}}, http.StatusOK, nil)
	var src replica.StatusResponse
	get(t, writer.URL+"/replica/status", &src)
	if src.Seq != 1 {
		t.Fatalf("writer seq = %d after one append, want 1", src.Seq)
	}
	if fmt.Sprintf("%.0f", epoch) != fmt.Sprintf("%d", src.Epoch) {
		// The JSON float64 round-trip loses precision on nanosecond
		// epochs; only demand both endpoints agree on the same log.
		t.Logf("epoch precision: stats %v vs status %d", epoch, src.Epoch)
	}
}
