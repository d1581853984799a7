package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	hybridlsh "repro"
	"repro/internal/persist"
	"repro/internal/replica"
)

// startServerAt boots a server on a fixed address (pass "127.0.0.1:0"
// to pick one) and returns the base URL plus a crash func that kills
// the listener WITHOUT closing the WAL or flushing anything — the
// closest in-process equivalent of SIGKILL. A warm restart then reuses
// the same address so followers keep polling the same URL.
func startServerAt(t *testing.T, cfg Config, addr string) (*Server, string, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	for i := 0; ; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i == 100 {
			t.Fatalf("binding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	var crashed bool
	crash := func() {
		crashed = true
		hs.Close()
	}
	t.Cleanup(func() {
		if !crashed {
			hs.Close()
		}
	})
	return s, "http://" + ln.Addr().String(), crash
}

// followerRehydrates reads the follower's re-hydration counter off its
// /stats replication block.
func followerRehydrates(t *testing.T, url string) float64 {
	t.Helper()
	var st struct {
		Replication map[string]any `json:"replication"`
	}
	get(t, url+"/stats", &st)
	v, _ := st.Replication["rehydrates"].(float64)
	return v
}

// TestWALWarmRestartResumesEpochAndCursor is the acceptance-criteria
// test: a writer journaling to -waldir with -fsync always is killed
// (listener torn down, WAL never closed) and restarted on the same
// address; it must resume the SAME epoch and sequence cursor with every
// acknowledged mutation intact, and a follower that was tailing it must
// keep tailing without a single extra re-hydration.
func TestWALWarmRestartResumesEpochAndCursor(t *testing.T) {
	cfg := testConfig()
	cfg.N = 600
	cfg.WALDir = t.TempDir()
	cfg.Fsync = replica.FsyncAlways

	_, url, crash := startServerAt(t, cfg, "127.0.0.1:0")

	rcfg := testConfig()
	rcfg.Hydrate = url
	_, rep := startReplicaServer(t, rcfg)

	// Acknowledged traffic: appends, deletes, a compaction.
	points := seedDense(cfg.N+30, cfg.Dim, cfg.Seed)
	raw := make([][]float64, 30)
	for i, p := range points[cfg.N:] {
		raw[i] = toFloats(p)
	}
	var app struct {
		IDs []int32 `json:"ids"`
	}
	post(t, url+"/append", map[string]any{"points": raw}, http.StatusOK, &app)
	post(t, url+"/delete", map[string]any{"ids": app.IDs[:9]}, http.StatusOK, nil)
	post(t, url+"/compact", map[string]any{}, http.StatusOK, nil)

	var pre replica.StatusResponse
	get(t, url+"/replica/status", &pre)
	if pre.Seq == 0 {
		t.Fatalf("writer journaled nothing: %+v", pre)
	}
	waitReplicaSeq(t, rep.URL, pre.Epoch, pre.Seq)
	rehydratesBefore := followerRehydrates(t, rep.URL)

	queries := points[:12]
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = queryIDs(t, url, toFloats(q))
	}

	crash()

	_, url2, _ := startServerAt(t, cfg, strings.TrimPrefix(url, "http://"))
	if url2 != url {
		t.Fatalf("restart bound %s, want the crashed writer's address %s", url2, url)
	}

	var after replica.StatusResponse
	get(t, url+"/replica/status", &after)
	if after.Epoch != pre.Epoch || after.Seq != pre.Seq {
		t.Fatalf("restart resumed epoch %d seq %d, want epoch %d seq %d (zero acknowledged-mutation loss)",
			after.Epoch, after.Seq, pre.Epoch, pre.Seq)
	}
	for i, q := range queries {
		if got := queryIDs(t, url, toFloats(q)); !slices.Equal(got, want[i]) {
			t.Fatalf("query %d after warm restart: %v, want the pre-crash answer %v", i, got, want[i])
		}
	}

	// The follower never noticed: the next append lands at the next seq
	// of the SAME epoch and tails straight through, no re-hydration.
	post(t, url+"/append", map[string]any{"points": raw[:1]}, http.StatusOK, nil)
	waitReplicaSeq(t, rep.URL, pre.Epoch, pre.Seq+1)
	if rh := followerRehydrates(t, rep.URL); rh != rehydratesBefore {
		t.Fatalf("follower re-hydrated across the warm restart: %v -> %v, want no change", rehydratesBefore, rh)
	}
}

// TestPromoteFollowerToWriter flips a converged follower into the
// writer: mutations come back (403 before, 200 after) at a new epoch
// seeded from the replayed cursor, the promoted node journals into its
// own WAL from the first post-promotion frame, its recalibrator comes
// back to life, and a fresh follower can hydrate off it.
func TestPromoteFollowerToWriter(t *testing.T) {
	cfg := testConfig()
	cfg.N = 500
	writer := startServer(t, cfg)

	rcfg := testConfig()
	rcfg.Hydrate = writer.URL
	rcfg.WALDir = t.TempDir()
	rs, rep := startReplicaServer(t, rcfg)

	points := seedDense(cfg.N+20, cfg.Dim, cfg.Seed)
	raw := make([][]float64, 20)
	for i, p := range points[cfg.N:] {
		raw[i] = toFloats(p)
	}
	post(t, writer.URL+"/append", map[string]any{"points": raw}, http.StatusOK, nil)
	var pre replica.StatusResponse
	get(t, writer.URL+"/replica/status", &pre)
	waitReplicaSeq(t, rep.URL, pre.Epoch, pre.Seq)

	post(t, rep.URL+"/append", map[string]any{"points": raw[:1]}, http.StatusForbidden, nil)

	var pr struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
		Seq      uint64 `json:"seq"`
	}
	post(t, rep.URL+"/promote", map[string]any{}, http.StatusOK, &pr)
	if !pr.Promoted || pr.Epoch == pre.Epoch || pr.Seq != pre.Seq {
		t.Fatalf("promote = %+v, want a new epoch resuming after the converged seq %d (old epoch %d)", pr, pre.Seq, pre.Epoch)
	}
	post(t, rep.URL+"/promote", map[string]any{}, http.StatusConflict, nil)

	// Mutations are writable again and journal at the promoted cursor.
	post(t, rep.URL+"/append", map[string]any{"points": raw[:1]}, http.StatusOK, nil)
	var st replica.StatusResponse
	get(t, rep.URL+"/replica/status", &st)
	if st.Role != "source" || st.Epoch != pr.Epoch || st.Seq != pr.Seq+1 {
		t.Fatalf("promoted status = %+v, want source at epoch %d seq %d", st, pr.Epoch, pr.Seq+1)
	}
	repl := rs.role.Load()
	if repl.wal == nil {
		t.Fatal("promotion with -waldir left no WAL attached")
	}
	if ws := repl.wal.Stats(); ws.FirstSeq != pr.Seq+1 || ws.LastSeq != pr.Seq+1 {
		t.Fatalf("promoted WAL spans [%d,%d], want exactly the post-promotion frame at %d", ws.FirstSeq, ws.LastSeq, pr.Seq+1)
	}
	if repl.recal == nil {
		t.Fatal("promotion did not restore the -recalibrate=auto drift loop")
	}

	var stats struct {
		Replication map[string]any `json:"replication"`
	}
	get(t, rep.URL+"/stats", &stats)
	if stats.Replication["role"] != "source" || stats.Replication["read_only"] != false {
		t.Fatalf("promoted /stats replication = %v, want a writable source", stats.Replication)
	}

	// A fresh follower hydrates off the promoted writer and converges.
	fcfg := testConfig()
	fcfg.Hydrate = rep.URL
	_, rep2 := startReplicaServer(t, fcfg)
	waitReplicaSeq(t, rep2.URL, pr.Epoch, pr.Seq+1)
	for i, q := range points[:8] {
		want := queryIDs(t, rep.URL, toFloats(q))
		if got := queryIDs(t, rep2.URL, toFloats(q)); !slices.Equal(got, want) {
			t.Fatalf("query %d on the new follower: %v, want the promoted writer's %v", i, got, want)
		}
	}
}

// TestPromoteRefusals pins the 409 paths: a writer cannot be promoted
// again, and a static (-hydrate path) replica has no cursor to promote
// from.
func TestPromoteRefusals(t *testing.T) {
	cfg := testConfig()
	cfg.N = 400
	cfg.Snapshot = filepath.Join(t.TempDir(), "snap.bin")
	writer := startServer(t, cfg)
	post(t, writer.URL+"/promote", map[string]any{}, http.StatusConflict, nil)

	post(t, writer.URL+"/snapshot", map[string]any{}, http.StatusOK, nil)
	scfg := testConfig()
	scfg.Hydrate = cfg.Snapshot
	_, static := startReplicaServer(t, scfg)
	post(t, static.URL+"/promote", map[string]any{}, http.StatusConflict, nil)

	// Replication feeds 404 on non-writers: they have nothing to serve.
	for _, ep := range []string{"/snapshot", "/delta?after=0"} {
		resp, err := http.Get(static.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on a static replica: %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestRefusedPromotionLeavesHealthyFollower: a promotion refused because
// -waldir already holds another incarnation's segments (409) must not
// strand the node — it keeps tailing its writer, still answers as a
// read-only follower, and a second POST /promote succeeds once the
// operator has emptied the directory.
func TestRefusedPromotionLeavesHealthyFollower(t *testing.T) {
	cfg := testConfig()
	cfg.N = 500
	writer := startServer(t, cfg)

	// Dirty the follower's WAL directory with a foreign epoch's segment.
	waldir := t.TempDir()
	foreign, _, err := replica.OpenWAL(waldir, persist.DeltaHeader{Epoch: 7, Metric: persist.MetricL2, Dim: cfg.Dim}, replica.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg := testConfig()
	rcfg.Hydrate = writer.URL
	rcfg.WALDir = waldir
	_, rep := startReplicaServer(t, rcfg)

	post(t, rep.URL+"/promote", map[string]any{}, http.StatusConflict, nil)

	// Still a follower, still read-only, still tailing: an append on the
	// old writer reaches it.
	points := seedDense(cfg.N+5, cfg.Dim, cfg.Seed)
	raw := make([][]float64, 5)
	for i, p := range points[cfg.N:] {
		raw[i] = toFloats(p)
	}
	post(t, writer.URL+"/append", map[string]any{"points": raw}, http.StatusOK, nil)
	var pre replica.StatusResponse
	get(t, writer.URL+"/replica/status", &pre)
	waitReplicaSeq(t, rep.URL, pre.Epoch, pre.Seq)
	var st replica.StatusResponse
	get(t, rep.URL+"/replica/status", &st)
	if st.Role != "follower" {
		t.Fatalf("status after a refused promotion = %+v, want a follower", st)
	}
	post(t, rep.URL+"/append", map[string]any{"points": raw[:1]}, http.StatusForbidden, nil)

	// The operator empties the directory; the retry goes through at the
	// cursor the follower has converged to since.
	segs, err := filepath.Glob(filepath.Join(waldir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	var pr struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
		Seq      uint64 `json:"seq"`
	}
	post(t, rep.URL+"/promote", map[string]any{}, http.StatusOK, &pr)
	if !pr.Promoted || pr.Epoch == pre.Epoch || pr.Seq != pre.Seq {
		t.Fatalf("retried promote = %+v, want a new epoch resuming after seq %d", pr, pre.Seq)
	}
	post(t, rep.URL+"/append", map[string]any{"points": raw[:1]}, http.StatusOK, nil)
}

// TestPromoteUnderTraffic swaps the role (a refused promotion, then a
// successful one) while readers hammer every role-dependent endpoint;
// under -race this is the proof the role value is swapped, never torn.
func TestPromoteUnderTraffic(t *testing.T) {
	cfg := testConfig()
	cfg.N = 400
	writer := startServer(t, cfg)
	waldir := t.TempDir()
	foreign, _, err := replica.OpenWAL(waldir, persist.DeltaHeader{Epoch: 7, Metric: persist.MetricL2, Dim: cfg.Dim}, replica.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foreign.Close()
	rcfg := testConfig()
	rcfg.Hydrate = writer.URL
	rcfg.WALDir = waldir
	_, rep := startReplicaServer(t, rcfg)

	point := map[string]any{"point": toFloats(seedDense(1, cfg.Dim, cfg.Seed)[0])}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/stats", "/replica/status", "/metrics"} {
					resp, err := http.Get(rep.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				b, _ := json.Marshal(point)
				for _, path := range []string{"/query", "/append"} { // append: 403 until promoted, 400 after (no "points")
					resp, err := http.Post(rep.URL+path, "application/json", bytes.NewReader(b))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	post(t, rep.URL+"/promote", map[string]any{}, http.StatusConflict, nil)
	segs, _ := filepath.Glob(filepath.Join(waldir, "*"))
	for _, seg := range segs {
		os.Remove(seg)
	}
	post(t, rep.URL+"/promote", map[string]any{}, http.StatusOK, nil)
	close(stop)
	wg.Wait()
}

// TestWALJournalErrorSurfaces forces a journal encode failure and
// checks it is no longer silent: the /stats replication block carries
// the sticky error and /metrics counts it.
func TestWALJournalErrorSurfaces(t *testing.T) {
	cfg := testConfig()
	cfg.N = 400
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// An empty delete is unencodable; the recorder latches the log.
	replica.NewRecorder[hybridlsh.Dense](s.role.Load().log).JournalDelete(nil)

	var st struct {
		Replication map[string]any `json:"replication"`
	}
	get(t, ts.URL+"/stats", &st)
	if errs, _ := st.Replication["journal_errors"].(float64); errs < 1 {
		t.Fatalf("journal_errors = %v, want >= 1", st.Replication["journal_errors"])
	}
	if msg, _ := st.Replication["journal_error"].(string); msg == "" {
		t.Fatalf("journal_error empty, want the sticky encode error (replication = %v)", st.Replication)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "hybridlsh_deltalog_errors_total 1") {
		t.Fatalf("/metrics missing hybridlsh_deltalog_errors_total 1:\n%s", body)
	}
}

// TestWALSnapshotTruncatesSegments: POST /snapshot drops WAL segments
// the snapshot fully covers, and a restart from snapshot + truncated
// WAL still resumes the same epoch and cursor.
func TestWALSnapshotTruncatesSegments(t *testing.T) {
	cfg := testConfig()
	cfg.N = 400
	cfg.WALDir = t.TempDir()
	cfg.WALSeg = 512 // rotate every handful of frames
	cfg.Snapshot = filepath.Join(t.TempDir(), "snap.bin")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	pts := seedDense(40, cfg.Dim, 77)
	for _, p := range pts {
		post(t, ts.URL+"/append", map[string]any{"points": [][]float64{toFloats(p)}}, http.StatusOK, nil)
	}
	if ws := s.role.Load().wal.Stats(); ws.Segments < 3 {
		t.Fatalf("WAL rotated into %d segments with walseg=%d, want >= 3", ws.Segments, cfg.WALSeg)
	}

	var snap struct {
		Removed int `json:"wal_segments_removed"`
	}
	post(t, ts.URL+"/snapshot", map[string]any{}, http.StatusOK, &snap)
	if snap.Removed < 1 {
		t.Fatalf("wal_segments_removed = %d after a covering snapshot, want >= 1", snap.Removed)
	}
	ws := s.role.Load().wal.Stats()
	if ws.LastSeq != 40 {
		t.Fatalf("WAL cursor %d after truncation, want 40 (retention must not move the cursor)", ws.LastSeq)
	}

	// A restart now needs the snapshot for the truncated prefix — and
	// resumes the same epoch and cursor from snapshot + WAL suffix.
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart from snapshot + truncated WAL: %v", err)
	}
	if s2.role.Load().log.Epoch() != s.role.Load().log.Epoch() || s2.role.Load().log.Seq() != 40 {
		t.Fatalf("restart resumed epoch %d seq %d, want epoch %d seq 40", s2.role.Load().log.Epoch(), s2.role.Load().log.Seq(), s.role.Load().log.Epoch())
	}
}

// TestWALSnapshotKeepsSegmentsWhenDirSyncFails: a POST /snapshot whose
// directory sync fails answers 500 and truncates no WAL segment — the
// renamed snapshot may not survive a crash, so the WAL must. Once the
// sync works again, the next snapshot truncates as usual.
func TestWALSnapshotKeepsSegmentsWhenDirSyncFails(t *testing.T) {
	cfg := testConfig()
	cfg.N = 400
	cfg.WALDir = t.TempDir()
	cfg.WALSeg = 512 // rotate every handful of frames
	cfg.Snapshot = filepath.Join(t.TempDir(), "snap.bin")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, p := range seedDense(40, cfg.Dim, 78) {
		post(t, ts.URL+"/append", map[string]any{"points": [][]float64{toFloats(p)}}, http.StatusOK, nil)
	}
	before := s.role.Load().wal.Stats()
	if before.Segments < 3 {
		t.Fatalf("WAL rotated into %d segments with walseg=%d, want >= 3", before.Segments, cfg.WALSeg)
	}

	defer func(orig func(string) error) { persist.SyncDir = orig }(persist.SyncDir)
	renamed := false
	persist.SyncDir = func(dir string) error {
		_, err := os.Stat(cfg.Snapshot)
		renamed = err == nil
		return errors.New("directory fsync failed")
	}
	post(t, ts.URL+"/snapshot", map[string]any{}, http.StatusInternalServerError, nil)
	if !renamed {
		t.Fatal("the directory was synced before the snapshot was renamed into it")
	}
	if after := s.role.Load().wal.Stats(); after.Segments != before.Segments {
		t.Fatalf("WAL holds %d segments after a snapshot whose directory sync failed, want all %d kept", after.Segments, before.Segments)
	}

	persist.SyncDir = func(string) error { return nil }
	var snap struct {
		Removed int `json:"wal_segments_removed"`
	}
	post(t, ts.URL+"/snapshot", map[string]any{}, http.StatusOK, &snap)
	if snap.Removed < 1 {
		t.Fatalf("wal_segments_removed = %d once the sync works, want >= 1", snap.Removed)
	}
}

// TestWALBootRefusesTruncatedPrefixWithoutSnapshot: a WAL whose prefix
// was truncated by retention cannot boot onto a synthetic base — the
// missing mutations live only in the snapshot.
func TestWALBootRefusesTruncatedPrefixWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	hdr := persist.DeltaHeader{Epoch: 9, Metric: persist.MetricL2, Dim: 12}
	w, _, err := replica.OpenWAL(dir, hdr, replica.WALOptions{StartSeq: 5})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	cfg := testConfig()
	cfg.WALDir = dir
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "starts at seq") {
		t.Fatalf("newServer on a truncated-prefix WAL without -snapshot: %v, want a refusal", err)
	}
}

// TestWALFlagValidation pins the -waldir/-fsync/-walseg rejections.
func TestWALFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *Config)
	}{
		{"bad-fsync", func(c *Config) { c.Fsync = "sometimes" }},
		{"negative-walseg", func(c *Config) { c.WALSeg = -1 }},
		{"waldir-on-static-replica", func(c *Config) { c.WALDir = t.TempDir(); c.Hydrate = "snap.bin" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("newServer accepted an invalid WAL flag combination")
			}
		})
	}
}
