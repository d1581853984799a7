package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	hybridlsh "repro"
	"repro/internal/dataset"
	"repro/internal/rng"
)

// liveHeap forces a full collection (two, so pooled buffers drop out
// too) and returns the heap bytes it marked live.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// mixture128 draws the load benchmark's dense128-batch shape: n points
// of 128 dimensions around 256 centres whose spreads run from 0.01 to
// 0.1 on a log scale, so a quarter of the clusters are tight enough to
// crowd a bucket and the rest spread over ~10⁶ buckets.
func mixture128(n int) []hybridlsh.Dense {
	const dim, clusters = 128, 256
	r := rng.New(0xd128)
	centers := make([]float32, clusters*dim)
	for i := range centers {
		centers[i] = float32(r.Float64())
	}
	spreads := make([]float64, clusters)
	for c := range spreads {
		spreads[c] = math.Exp(math.Log(0.01) + r.Float64()*(math.Log(0.1)-math.Log(0.01)))
	}
	pts := make([]hybridlsh.Dense, n)
	for i := range pts {
		c := r.Intn(clusters)
		row := make(hybridlsh.Dense, dim)
		for j := range row {
			row[j] = centers[c*dim+j] + float32(r.Normal()*spreads[c])
		}
		pts[i] = row
	}
	return pts
}

// writeIndex builds an index through build and writes its snapshot to a
// file, returning the path. Nothing it builds outlives the call.
func writeIndex(t *testing.T, build func() (io.WriterTo, error)) string {
	t.Helper()
	ix, err := build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestIndexBytesAddUp boots a node on each load-benchmark workload's
// index shape — Corel-like d = 32 at r = 0.5, the 50 000-point d = 128
// mixture, MNIST-like 64-bit Hamming at r = 16, and a WAL-backed Corel
// writer after appends and deletes (overlay and delta log) — and holds
// the hybridlsh_index_bytes parts, read from array lengths, to within
// 10 % of the heap the node added, measured after a forced GC.
func TestIndexBytesAddUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four benchmark-sized indexes")
	}
	if raceBuild() {
		t.Skip("the race detector's shadow memory is not heap the index holds")
	}
	cost := hybridlsh.WithCostModel(hybridlsh.CostModel{Alpha: 1, Beta: 10})
	dense := func(pts func() []hybridlsh.Dense, r float64) func() (io.WriterTo, error) {
		return func() (io.WriterTo, error) {
			return hybridlsh.NewSharded(hybridlsh.L2, pts(), r, hybridlsh.WithSeed(1), hybridlsh.WithShards(2), cost)
		}
	}
	corel := func() []hybridlsh.Dense { return dataset.CorelLike(1, 1).Points }
	for _, tc := range []struct {
		name, metric string
		build        func() (io.WriterTo, error)
		writes       int // append/delete pairs sent to a WAL-backed writer
	}{
		{"corel-report", "l2", dense(corel, 0.5), 0},
		{"dense128-batch", "l2", dense(func() []hybridlsh.Dense { return mixture128(50000) }, 0.3), 0},
		{"mnist-collide", "hamming", func() (io.WriterTo, error) {
			return hybridlsh.NewSharded(hybridlsh.Hamming, dataset.MNISTLike(1, 1).Points, 16,
				hybridlsh.WithSeed(1), hybridlsh.WithShards(2), hybridlsh.WithCostModel(hybridlsh.CostModel{Alpha: 1, Beta: 1}))
		}, 0},
		{"corel-readwrite", "l2", dense(corel, 0.35), 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeIndex(t, tc.build)
			cfg := DefaultConfig()
			cfg.Metric, cfg.Snapshot, cfg.Recalibrate = tc.metric, path, "off"
			if tc.writes > 0 {
				cfg.WALDir, cfg.Fsync, cfg.CompactThresh = t.TempDir(), "off", 0.05
			}
			base := liveHeap()
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			h := s.Handler()
			fresh := dataset.CorelLike(0.05, 2).Points
			for i := 0; i < tc.writes; i++ {
				pts := make([][]float32, 32)
				for j := range pts {
					pts[j] = fresh[(32*i+j)%len(fresh)]
				}
				var added struct{ IDs []int32 }
				send(t, h, "/append", map[string]any{"points": pts}, &added)
				send(t, h, "/delete", map[string]any{"ids": added.IDs[:16]}, nil)
			}
			live := liveHeap() - base
			var sum int64
			parts := map[string]int64{}
			for _, p := range s.indexParts() {
				sum += p.bytes
				parts[p.name] = p.bytes
			}
			runtime.KeepAlive(s)
			t.Logf("live heap %.1f MB, parts %.1f MB: %v", float64(live)/1e6, float64(sum)/1e6, parts)
			// Each append frame carries its 32 points' 32 float32 coordinates.
			if tc.writes > 0 && (parts["overlay"] == 0 || parts["deltalog"] < int64(tc.writes)*32*32*4) {
				t.Errorf("a writer after %d appends reports overlay %d and deltalog %d bytes", tc.writes, parts["overlay"], parts["deltalog"])
			}
			if d := math.Abs(float64(sum-live)) / float64(live); d > 0.10 {
				t.Errorf("index parts sum to %d bytes, the node holds %d: off by %.1f %%", sum, live, 100*d)
			}
		})
	}
}

// send posts body to the handler and decodes a 200 answer into out.
func send(t *testing.T, h http.Handler, path string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
}
