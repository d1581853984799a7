package bench

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/vector"
)

// PersistResult reports the build-once-load-many experiment: how long a
// snapshot reload takes versus rebuilding the same index from raw
// points, and whether the reloaded index is answer-identical. The whole
// point of persistence is the Speedup column — the paper's build-time
// work (L hash tables, per-bucket sketches) is paid once and reloaded
// on every restart instead of being redone.
type PersistResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	// BuildSec is the mean wall time of core index construction
	// (hashing every point into L tables and sketching the buckets).
	BuildSec float64 `json:"build_sec"`
	// SaveSec and LoadSec are the mean snapshot write/read times;
	// SnapshotBytes is the snapshot size.
	SaveSec       float64 `json:"save_sec"`
	LoadSec       float64 `json:"load_sec"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	// Speedup is BuildSec / LoadSec: how many cold rebuilds one
	// snapshot load replaces.
	Speedup float64 `json:"speedup"`
	// LoadHashes counts hash evaluations (lsh.HashEvaluations) across
	// the loads: a load reads the tables, so it hashes nothing.
	LoadHashes uint64 `json:"load_hashes"`
	// QueriesChecked queries were answered by both indexes; Mismatches
	// of them diverged in ids or strategy, and Identical is their
	// absence.
	QueriesChecked int  `json:"queries_checked"`
	Mismatches     int  `json:"mismatches"`
	Identical      bool `json:"identical"`
}

// PersistExperiment measures load-vs-build on the Corel-like L2
// workload (the paper's Figure-2d dataset) at its middle radius: build
// the index Runs times, snapshot it, reload it Runs times, and verify
// the reloaded index answers the query set id-for-id identically with
// the same strategy decisions.
func PersistExperiment(cfg Config) (*PersistResult, error) {
	data, queries, r := corelWorkload(cfg)
	build := func() (*core.Index[vector.Dense], error) {
		return core.NewIndex(data, cfg.corelConfig(r, core.CostModel{}, cfg.Seed+3))
	}
	runs := max(cfg.Runs, 1)

	res := &PersistResult{Dataset: "corel-like", N: len(data), Metric: "l2", Radius: r}

	var ix *core.Index[vector.Dense]
	var err error
	var buildTotal time.Duration
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		ix, err = build()
		if err != nil {
			return nil, fmt.Errorf("bench: building persist-experiment index: %w", err)
		}
		buildTotal += time.Since(t0)
	}
	res.BuildSec = buildTotal.Seconds() / float64(runs)

	var buf bytes.Buffer
	var saveTotal time.Duration
	for i := 0; i < runs; i++ {
		buf.Reset()
		t0 := time.Now()
		n, err := persist.Write(&buf, persist.MetricL2, ix)
		if err != nil {
			return nil, fmt.Errorf("bench: writing snapshot: %w", err)
		}
		saveTotal += time.Since(t0)
		res.SnapshotBytes = n
	}
	res.SaveSec = saveTotal.Seconds() / float64(runs)

	var loaded core.Store[vector.Dense]
	var loadTotal time.Duration
	hashes := lsh.HashEvaluations()
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		loaded, _, err = persist.Read[vector.Dense](bytes.NewReader(buf.Bytes()), persist.MetricL2)
		if err != nil {
			return nil, fmt.Errorf("bench: reading snapshot: %w", err)
		}
		loadTotal += time.Since(t0)
	}
	res.LoadSec = loadTotal.Seconds() / float64(runs)
	res.LoadHashes = lsh.HashEvaluations() - hashes
	if res.LoadSec > 0 {
		res.Speedup = res.BuildSec / res.LoadSec
	}

	for _, q := range queries {
		wids, wstats := ix.Query(q)
		gids, gstats := loaded.Query(q)
		slices.Sort(wids)
		slices.Sort(gids)
		if !slices.Equal(wids, gids) || wstats.Strategy != gstats.Strategy {
			res.Mismatches++
		}
		res.QueriesChecked++
	}
	res.Identical = res.Mismatches == 0
	return res, nil
}

// PrintPersist renders the persist experiment like the other tables.
func PrintPersist(w io.Writer, res *PersistResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s r=%v  snapshot=%s\n",
		res.Dataset, res.N, res.Metric, res.Radius, byteCount(res.SnapshotBytes))
	fmt.Fprintf(w, "  %-12s %12s\n", "phase", "mean sec")
	fmt.Fprintf(w, "  %-12s %12.4f\n", "build", res.BuildSec)
	fmt.Fprintf(w, "  %-12s %12.4f\n", "save", res.SaveSec)
	fmt.Fprintf(w, "  %-12s %12.4f\n", "load", res.LoadSec)
	fmt.Fprintf(w, "  load is %.1f× faster than rebuild; %d/%d queries answer-identical (identical=%v)\n",
		res.Speedup, res.QueriesChecked-res.Mismatches, res.QueriesChecked, res.Identical)
}

func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
