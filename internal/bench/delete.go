package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// DeleteFraction is the share of points the delete experiment tombstones
// — deliberately above the default auto-compaction threshold, since the
// experiment is about what that trigger buys.
const DeleteFraction = 0.30

// DeleteResult reports the delete/compaction experiment: the same query
// set answered by the same sharded index before and after compacting its
// tombstoned points out of the buckets. Pre-compaction the cost model's
// inputs (LinearCost's n, bucket sizes, sketches) still count every
// deleted point, so the strategy decision drifts and the LSH path pays
// distance computations on points it then filters away; post-compaction
// every input counts live points only. The post-compaction decisions are
// therefore the reference: DecisionMatchPct measures how often the
// tombstone-skewed index already agreed with them.
type DeleteResult struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Metric  string  `json:"metric"`
	Radius  float64 `json:"radius"`
	Shards  int     `json:"shards"`
	// Deleted points were tombstoned (DeletedPct of N) before measuring.
	Deleted    int     `json:"deleted"`
	DeletedPct float64 `json:"deleted_pct"`
	// Mean per-query wall latency (µs) over the query set, averaged over
	// the configured runs, before and after compaction.
	PreQueryUS  float64 `json:"pre_query_us"`
	PostQueryUS float64 `json:"post_query_us"`
	// Mean distinct candidates examined per query (summed over shards).
	PreCandidates  float64 `json:"pre_candidates"`
	PostCandidates float64 `json:"post_candidates"`
	// Share of per-shard answers that used the linear scan (%).
	PreLinearPct  float64 `json:"pre_linear_pct"`
	PostLinearPct float64 `json:"post_linear_pct"`
	// DecisionMatchPct is the percentage of (query, shard) strategy
	// decisions the tombstoned index got "right", i.e. matching the
	// decision the compacted index makes from live-only inputs.
	DecisionMatchPct float64 `json:"decision_match_pct"`
	// CompactSec is the wall time of compacting all shards and
	// CompactedPoints how many points the compaction removed.
	CompactSec      float64 `json:"compact_sec"`
	CompactedPoints int     `json:"compacted_points"`
	// QueriesChecked queries were answered before and after. Compaction
	// itself never changes an answer: wherever every shard kept its
	// strategy, the reported sets must be identical (AnswerMismatches
	// counts violations; AnswersIdentical is their absence). Queries
	// where some shard flipped strategy — the cost model seeing live
	// counts is the point of compacting — are counted in StrategyFlips
	// and excluded from the identity check, since a linear→LSH flip
	// trades exactness for the usual per-point δ guarantee.
	QueriesChecked   int  `json:"queries_checked"`
	StrategyFlips    int  `json:"strategy_flips"`
	AnswerMismatches int  `json:"answer_mismatches"`
	AnswersIdentical bool `json:"answers_identical"`
}

// deleteMeasure is one pass of the query set over the sharded index.
type deleteMeasure struct {
	queryUS    float64
	candidates float64
	linearPct  float64
	strategies [][]core.Strategy // [query][shard]
	answers    [][]int32         // sorted ids per query
}

// DeleteExperiment measures the tombstone skew and its repair on the
// Corel-like L2 workload at the middle radius: build a sharded index,
// tombstone DeleteFraction of the points (auto-compaction disabled so
// the skewed state is observable), answer the query set, compact every
// shard, and answer it again.
func DeleteExperiment(cfg Config) (*DeleteResult, error) {
	data, queries, r := corelWorkload(cfg)
	sh, err := corelSharded(cfg, data, r, core.CostModel{})
	if err != nil {
		return nil, fmt.Errorf("bench: building delete-experiment index: %w", err)
	}
	// Disable the auto trigger: the whole point is measuring the skewed
	// pre-compaction state, then compacting explicitly.
	sh.SetAutoCompact(1)

	res := &DeleteResult{
		Dataset: "corel-like", N: len(data), Metric: "l2", Radius: r, Shards: corelShards,
		DeletedPct: 100 * DeleteFraction,
	}

	// Tombstone a seeded random DeleteFraction of the points.
	perm := make([]int32, len(data))
	for i := range perm {
		perm[i] = int32(i)
	}
	rr := rng.New(cfg.Seed + 7)
	for i := len(perm) - 1; i > 0; i-- {
		j := rr.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	del := perm[:int(float64(len(data))*DeleteFraction)]
	res.Deleted = sh.Delete(del)

	runs := max(cfg.Runs, 1)
	measure := func() deleteMeasure {
		m := deleteMeasure{
			strategies: make([][]core.Strategy, len(queries)),
			answers:    make([][]int32, len(queries)),
		}
		var wall time.Duration
		var answered, linear, cands int
		for run := 0; run < runs; run++ {
			for qi, q := range queries {
				ids, st := sh.Query(q)
				wall += st.WallTime
				if run > 0 {
					continue // answers and decisions are run-invariant
				}
				cands += st.Candidates
				answered += st.LSHShards + st.LinearShards
				linear += st.LinearShards
				strat := make([]core.Strategy, len(st.PerShard))
				for j, ps := range st.PerShard {
					strat[j] = ps.Strategy
				}
				m.strategies[qi] = strat
				slices.Sort(ids)
				m.answers[qi] = ids
			}
		}
		nq := float64(len(queries))
		m.queryUS = wall.Seconds() * 1e6 / (nq * float64(runs))
		m.candidates = float64(cands) / nq
		if answered > 0 {
			m.linearPct = 100 * float64(linear) / float64(answered)
		}
		return m
	}

	pre := measure()

	t0 := time.Now()
	compacted, err := sh.CompactAll()
	if err != nil {
		return nil, fmt.Errorf("bench: compacting: %w", err)
	}
	res.CompactSec = time.Since(t0).Seconds()
	res.CompactedPoints = compacted

	post := measure()

	res.PreQueryUS, res.PostQueryUS = pre.queryUS, post.queryUS
	res.PreCandidates, res.PostCandidates = pre.candidates, post.candidates
	res.PreLinearPct, res.PostLinearPct = pre.linearPct, post.linearPct

	match, decisions := 0, 0
	for qi := range queries {
		flipped := false
		for j := range post.strategies[qi] {
			decisions++
			if pre.strategies[qi][j] == post.strategies[qi][j] {
				match++
			} else {
				flipped = true
			}
		}
		if flipped {
			res.StrategyFlips++
			continue
		}
		if !slices.Equal(pre.answers[qi], post.answers[qi]) {
			res.AnswerMismatches++
		}
	}
	if decisions > 0 {
		res.DecisionMatchPct = 100 * float64(match) / float64(decisions)
	}
	res.QueriesChecked = len(queries)
	res.AnswersIdentical = res.AnswerMismatches == 0
	return res, nil
}

// PrintDelete renders the delete experiment like the other tables.
func PrintDelete(w io.Writer, res *DeleteResult) {
	fmt.Fprintf(w, "dataset=%s n=%d metric=%s r=%v shards=%d  deleted=%d (%.0f%%), compacted %d points in %.4fs\n",
		res.Dataset, res.N, res.Metric, res.Radius, res.Shards,
		res.Deleted, res.DeletedPct, res.CompactedPoints, res.CompactSec)
	fmt.Fprintf(w, "  %-24s %14s %14s\n", "", "tombstoned", "compacted")
	fmt.Fprintf(w, "  %-24s %14.1f %14.1f\n", "query mean µs", res.PreQueryUS, res.PostQueryUS)
	fmt.Fprintf(w, "  %-24s %14.1f %14.1f\n", "candidates/query", res.PreCandidates, res.PostCandidates)
	fmt.Fprintf(w, "  %-24s %13.1f%% %13.1f%%\n", "linear shard answers", res.PreLinearPct, res.PostLinearPct)
	fmt.Fprintf(w, "  tombstoned decisions matched live-input decisions on %.1f%% of (query, shard) pairs\n",
		res.DecisionMatchPct)
	same := res.QueriesChecked - res.StrategyFlips
	fmt.Fprintf(w, "  %d/%d same-strategy queries answer-identical across compaction (identical=%v); %d queries flipped strategy\n",
		same-res.AnswerMismatches, same, res.AnswersIdentical, res.StrategyFlips)
}
