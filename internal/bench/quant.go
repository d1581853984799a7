package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pointstore"
	"repro/internal/vector"
)

// QuantResult reports the candidate-verification experiment: the wall
// time the same LSH candidate sets cost under the pre-refactor
// verification (per-point heap rows, per-candidate sqrt distance), the
// flat struct-of-arrays store, and the SQ8-quantized store, plus the
// correctness gate — all three must report identical id sets.
type QuantResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Dim     int     `json:"dim"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	Queries int     `json:"queries"`
	// Mode is the quantization mode the headline speedup is measured
	// against ("off" benchmarks the flat store alone).
	Mode string `json:"mode"`
	// CandAvg is the mean LSH candidate-list size per query — the work
	// every arm verifies.
	CandAvg int `json:"cand_avg"`
	// BaselineSec is the pre-refactor arm: points as individually
	// allocated rows, one sqrt distance per candidate. FlatSec is the
	// exact struct-of-arrays batch verify; QuantSec adds the SQ8
	// pre-filter. Each is the best total over the configured runs.
	BaselineSec float64 `json:"baseline_sec"`
	FlatSec     float64 `json:"flat_sec"`
	QuantSec    float64 `json:"quant_sec"`
	// SpeedupFlat is BaselineSec/FlatSec. SpeedupVerify is the headline
	// gate: baseline over the selected mode's store (QuantSec for sq8,
	// FlatSec for off); the CI gate requires >= 1.3.
	SpeedupFlat   float64 `json:"speedup_flat"`
	SpeedupVerify float64 `json:"speedup_verify"`
	// RejectedFrac and AcceptedFrac are the shares of candidates the
	// SQ8 screen resolved without an exact check (clear of the
	// ambiguity band on either side); Bound is the fit's conservative
	// decode-error bound E. 1 − rejected − accepted is the share that
	// paid the exact re-check.
	RejectedFrac float64 `json:"rejected_frac"`
	AcceptedFrac float64 `json:"accepted_frac"`
	Bound        float64 `json:"quant_bound"`
	// Mismatches counts (query, arm) pairs whose id set differed from
	// the baseline's. Must be 0 — the SQ8 pre-filter is conservative by
	// construction.
	Mismatches int `json:"mismatches"`
}

// baselineL2 is the pre-refactor distance kernel: a scalar loop and a
// sqrt per candidate, kept here so the refactored library can still be
// benchmarked against what it replaced.
func baselineL2(a, b vector.Dense) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// QuantExperiment isolates candidate verification — the inner loop both
// of the paper's search arms bottom out in — on the Corel-like L2
// workload. It collects each query's real LSH candidate set (the deduped
// union of its L home buckets, exactly what core.Index verifies), then
// replays the identical sets through three verification arms: the
// pre-refactor layout (per-point heap rows, sqrt per candidate), the
// flat struct-of-arrays store, and the SQ8-quantized store. Identical
// inputs make the arms answer-comparable id-for-id, which doubles as
// the mismatch gate.
func QuantExperiment(cfg Config, mode pointstore.Mode) (*QuantResult, error) {
	data, queries, r := corelWorkload(cfg)
	ix, err := core.NewIndex(data, cfg.corelConfig(r, core.CostModel{}, cfg.Seed+2))
	if err != nil {
		return nil, err
	}

	// Collect each query's deduped candidate set from the index's own
	// tables — the exact id lists core.Index hands to VerifyRadius.
	seen := make([]int32, len(data))
	gen := int32(0)
	cands := make([][]int32, len(queries))
	total := 0
	for qi, q := range queries {
		gen++
		var ids []int32
		for _, b := range ix.Tables().Lookup(q) {
			for _, id := range b.IDs {
				if seen[id] != gen {
					seen[id] = gen
					ids = append(ids, id)
				}
			}
		}
		cands[qi] = ids
		total += len(ids)
	}

	// The three storage arms over the same points.
	rows := make([]vector.Dense, len(data)) // individually allocated, as []P stores were
	for i, p := range data {
		rows[i] = append(vector.Dense(nil), p...)
	}
	flat, err := pointstore.NewFlatL2(data, pointstore.ModeOff)
	if err != nil {
		return nil, err
	}
	quant, err := pointstore.NewFlatL2(data, pointstore.ModeSQ8)
	if err != nil {
		return nil, err
	}

	res := &QuantResult{
		Dataset: "corel-like",
		N:       len(data),
		Dim:     dataset.CorelDim,
		Metric:  "l2",
		Radius:  r,
		Queries: len(queries),
		Mode:    mode.String(),
		CandAvg: total / max(len(queries), 1),
		Bound:   quant.Stats().QuantBound,
	}

	baseline := make([][]int32, len(queries))
	timeArm := func(verify func(qi int, out []int32) []int32, check bool) (float64, error) {
		best := math.Inf(1)
		runs := max(cfg.Runs, 1)
		for run := 0; run < runs; run++ {
			out := make([]int32, 0, 256)
			start := time.Now()
			for qi := range queries {
				out = verify(qi, out[:0])
				if run == 0 {
					if !check {
						baseline[qi] = append([]int32(nil), out...)
					} else if !equalIDs(baseline[qi], out) {
						res.Mismatches++
					}
				}
			}
			if sec := time.Since(start).Seconds(); sec < best {
				best = sec
			}
		}
		return best, nil
	}

	res.BaselineSec, _ = timeArm(func(qi int, out []int32) []int32 {
		q := queries[qi]
		for _, id := range cands[qi] {
			if baselineL2(rows[id], q) <= r {
				out = append(out, id)
			}
		}
		return out
	}, false)
	res.FlatSec, _ = timeArm(func(qi int, out []int32) []int32 {
		return flat.VerifyRadius(queries[qi], cands[qi], r, out)
	}, true)
	res.QuantSec, _ = timeArm(func(qi int, out []int32) []int32 {
		return quant.VerifyRadius(queries[qi], cands[qi], r, out)
	}, true)

	if res.FlatSec > 0 {
		res.SpeedupFlat = res.BaselineSec / res.FlatSec
	}
	switch mode {
	case pointstore.ModeSQ8:
		if res.QuantSec > 0 {
			res.SpeedupVerify = res.BaselineSec / res.QuantSec
		}
	default:
		res.SpeedupVerify = res.SpeedupFlat
	}
	if st := quant.Stats(); st.Verified > 0 {
		res.RejectedFrac = float64(st.QuantRejected) / float64(st.Verified)
		res.AcceptedFrac = float64(st.QuantAccepted) / float64(st.Verified)
	}
	return res, nil
}

// equalIDs compares two id lists element-wise (every arm preserves the
// candidate input order, so no sorting is needed).
func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrintQuant renders the verification-arm comparison.
func PrintQuant(w io.Writer, r *QuantResult) {
	fmt.Fprintf(w, "  %s: n=%d dim=%d r=%.3g, %d queries, avg %d candidates (mode %s)\n",
		r.Dataset, r.N, r.Dim, r.Radius, r.Queries, r.CandAvg, r.Mode)
	fmt.Fprintf(w, "  baseline (rows+sqrt)   %8.3f ms\n", r.BaselineSec*1e3)
	fmt.Fprintf(w, "  flat (SoA, squared)    %8.3f ms   %.2fx\n", r.FlatSec*1e3, r.SpeedupFlat)
	fmt.Fprintf(w, "  sq8 (quant screen)     %8.3f ms   rejected %.0f%% accepted %.0f%% (bound %.3g)\n",
		r.QuantSec*1e3, r.RejectedFrac*100, r.AcceptedFrac*100, r.Bound)
	fmt.Fprintf(w, "  speedup_verify %.2fx   mismatches %d\n", r.SpeedupVerify, r.Mismatches)
}
