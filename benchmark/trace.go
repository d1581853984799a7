package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pointstore"
	"repro/internal/shard"
	"repro/internal/stats"
)

// span is one traced interval. Spans of one request share Request; Parent
// is the id of the span that caused this one, -1 for a root. Times are
// nanoseconds since the tracer's epoch.
//
// The benchmark traces from outside: it can time a call into a layer,
// not look inside one. A parent and its children are therefore separate
// calls on the same input — Index.Query, then Index.DecideStrategy, then
// the store's VerifyRadius on the same candidates — and a child span is
// re-based into its parent's interval (placed after the siblings
// recorded before it) so that the usual rule, self time = span minus the
// part its children cover, applies. Rebased marks those spans.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Rebased bool   `json:"rebased,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	spans  []span
	cursor map[int]int64 // per parent: offset where its next child goes
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cursor: map[int]int64{}} }

// root records a span measured where it happened.
func (t *tracer) root(name string, request int, start time.Time, d time.Duration) int {
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Request: request, Name: name, Start: s, End: s + d.Nanoseconds()})
	return len(t.spans) - 1
}

// child records a span of duration d, measured by a separate call, under
// parent.
func (t *tracer) child(name string, parent int, d time.Duration) int {
	p := t.spans[parent]
	s := p.Start + t.cursor[parent]
	t.cursor[parent] += d.Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: p.Request, Name: name,
		Start: s, End: s + d.Nanoseconds(), Rebased: true})
	return len(t.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanStats groups span durations and self times by name, in
// microseconds.
type spanStats struct {
	dur, self map[string][]float64
}

func groupSpans(spans []span) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.End-s.Start)/1e3)
		st.self[s.Name] = append(st.self[s.Name], float64(self[i])/1e3)
	}
	return st
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"format": "hybridlsh-benchtrace/v1", "spans": t.spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- the traced run ----

// tracedRun produces the per-layer numbers: library spans from the same
// snapshot loaded in-process, HTTP spans from the same request sent
// direct to hybridserve and through the router in alternation, then an
// untraced and a traced closed-loop phase whose throughputs price the
// tracing.
func (e *engine[P]) tracedRun(dep *deployment) error {
	tr := newTracer()
	if err := e.libraryPhase(dep, tr); err != nil {
		return err
	}

	var mut *mutator[P]
	if e.w.ReadWrite {
		mut = newMutator(e, dep, true)
	}
	third := time.Duration(e.o.seconds * float64(time.Second) / 3)
	pids := dep.cl.pids()
	paired, err := e.closedLoop(dep, phase{url: dep.router.url, directURL: dep.target.url, warm: time.Second, measure: third, decode: true, pids: pids}, mut)
	if err != nil {
		return err
	}
	plain, err := e.closedLoop(dep, phase{url: dep.router.url, warm: time.Second, measure: third, pids: pids}, mut)
	if err != nil {
		return err
	}
	traced, err := e.closedLoop(dep, phase{url: dep.router.url, warm: time.Second, measure: third, decode: true, pids: pids}, mut)
	if err != nil {
		return err
	}
	for i, s := range paired.measured() {
		name := "client.via_router"
		if s.direct {
			name = "client.direct"
		}
		id := tr.root(name, e.w.LibQueries+i, paired.start.Add(s.end-s.lat), s.lat)
		tr.child("shard", id, time.Duration(s.wallUS*float64(time.Microsecond)))
	}

	st := groupSpans(tr.spans)
	m := e.metrics
	via, direct := median(st.self["client.via_router"]), median(st.self["client.direct"])
	m["hybridrouter.self_us"] = via - direct
	m["hybridserve.transport_self_us"] = direct
	m["shard.wall_us"] = median(st.dur["shard"])
	e.samples["hybridrouter.self_us"] = len(st.self["client.via_router"])
	e.samples["hybridserve.transport_self_us"] = len(st.self["client.direct"])
	var reqB, respB []float64
	for _, rq := range e.reqs {
		reqB = append(reqB, float64(len(rq.body)))
	}
	for _, s := range paired.measured() {
		respB = append(respB, float64(s.respB))
	}
	m["hybridserve.request_bytes"], m["hybridserve.response_bytes"] = stats.Mean(reqB), stats.Mean(respB)

	m["core.query_us"] = stats.Mean(st.dur["core.query"])
	m["core.decide_us"] = stats.Mean(st.dur["core.decide"])
	m["core.search_self_us"] = stats.Mean(st.self["core.query"])
	m["lsh.hash_us"] = stats.Mean(st.dur["lsh.hash"])
	m["lsh.lookup_us"] = stats.Mean(st.dur["lsh.lookup"])
	m["hll.merge_us"] = stats.Mean(st.dur["hll.merge"])
	m["pointstore.verify_us"] = stats.Mean(st.dur["pointstore.verify"])
	m["pointstore.scan_us"] = stats.Mean(st.dur["pointstore.scan"])
	m["shard.fanout_self_us"] = stats.Mean(st.self["shard.query"])
	e.samples["core.query_us"] = len(st.dur["core.query"])

	m["trace.overhead_share"] = 1 - traced.qps()/plain.qps()
	m["loadgen.cpu_share"] = plain.selfCPU / (plain.to - plain.from).Seconds()
	e.budget = map[string]float64{
		"via_router_p50_us": median(st.dur["client.via_router"]),
		"direct_p50_us":     median(st.dur["client.direct"]),
		"untraced_qps":      plain.qps(),
		"traced_qps":        traced.qps(),
	}

	// The end-to-end metrics the contract lists under per_layer come
	// from the untraced phase.
	e2e, e2eN := map[string]float64{}, map[string]int{}
	if err := plain.windowStats(e2e, e2eN); err != nil {
		return err
	}
	m["query_p99_ms"], e.samples["query_p99_ms"] = e2e["query_p99_ms"], e2eN["query_p99_ms"]
	if mut != nil {
		mut.report(plain, m, e.samples)
		for _, r := range []*phaseResult{paired, plain, traced} {
			e.verifyReadWrite(r.checks, mut)
		}
	}
	if err := e.serverCounters(dep, mut); err != nil {
		return err
	}
	return tr.write(filepath.Join(e.env.outDir, "trace-"+e.w.Name+".json"))
}

// libraryPhase loads the snapshot the servers loaded and replays the
// first LibQueries queries through each layer's public functions, one
// pass per function so that every call meets the caches as cold as the
// served query does.
func (e *engine[P]) libraryPhase(dep *deployment, tr *tracer) error {
	t0 := time.Now()
	f, err := os.Open(dep.snapPath)
	if err != nil {
		return err
	}
	sh, _, err := persist.ReadSharded[P](bufio.NewReaderSize(f, 1<<20), e.sp.metric)
	f.Close()
	if err != nil {
		return fmt.Errorf("loading %s in-process: %w", dep.snapPath, err)
	}
	e.metrics["persist.snapshot_load_s"] = time.Since(t0).Seconds()

	// Snapshot hands out live references meant to be dropped when the
	// callback returns; this index is private to the phase and never
	// mutated, so keeping them is safe.
	var ixs []*core.Index[P]
	err = sh.Snapshot(func(shards []shard.ShardSnapshot[P], _ int32, _ []int32) error {
		for j, sv := range shards {
			ix, ok := sv.Index.(*core.Index[P])
			if !ok {
				return fmt.Errorf("shard %d holds a %T, want a classic *core.Index", j, sv.Index)
			}
			ixs = append(ixs, ix)
		}
		return nil
	})
	if err != nil {
		return err
	}
	qs := e.queries[:min(e.w.LibQueries, len(e.queries))]
	r := e.w.Radius

	var linear, estimated, collisions, candidates, results int
	for i, q := range qs {
		t := time.Now()
		ids, st := sh.Query(q)
		id := tr.root("shard.query", i, t, time.Since(t))
		tr.child("shard.slowest", id, st.MaxShardTime)
		linear += st.LinearShards
		collisions += st.Collisions
		candidates += st.Candidates
		results += len(ids)
		for _, ps := range st.PerShard {
			if ps.Estimated {
				estimated++
			}
		}
	}
	calls := float64(len(qs) * len(ixs))
	m := e.metrics
	m["core.linear_share"] = float64(linear) / calls
	m["core.estimated_share"] = float64(estimated) / calls
	m["core.collisions_per_query"] = float64(collisions) / float64(len(qs))
	m["core.candidates_per_query"] = float64(candidates) / float64(len(qs))
	m["core.results_per_query"] = float64(results) / float64(len(qs))
	m["core.useful_ratio"] = float64(results) / float64(max(candidates, 1))

	type call struct {
		query, decide int // span ids
		strategy      core.Strategy
		estimated     bool
	}
	callsOf := make([][]call, len(qs))
	for i, q := range qs {
		callsOf[i] = make([]call, len(ixs))
		for j, ix := range ixs {
			t := time.Now()
			_, st := ix.Query(q)
			callsOf[i][j] = call{query: tr.root("core.query", i, t, time.Since(t)), strategy: st.Strategy}
		}
	}
	for i, q := range qs {
		for j, ix := range ixs {
			c := &callsOf[i][j]
			t := time.Now()
			_, st := ix.DecideStrategy(q)
			c.decide = tr.child("core.decide", c.query, time.Since(t))
			c.estimated = st.Estimated
		}
	}

	stores := make([]pointstore.Store[P], len(ixs))
	visited := make([][]bool, len(ixs))
	for j, ix := range ixs {
		st, err := e.sp.store(ix.Points())
		if err != nil {
			return err
		}
		stores[j], visited[j] = st, make([]bool, ix.N())
	}
	var hit, probed, verified, scanned int
	var verifyNS, scanNS time.Duration
	var relErr []float64
	var keys []uint64
	var buckets []*lsh.Bucket
	var cand, out []int32
	sketch := hll.New(ixs[0].Tables().Params().HLLRegisters) // reset by every merge
	for i, q := range qs {
		for j, ix := range ixs {
			c := callsOf[i][j]
			tabs := ix.Tables()
			L := tabs.L()

			keys = keys[:0]
			t := time.Now()
			for k := 0; k < L; k++ {
				keys = append(keys, tabs.Table(k).Hasher.Key(q))
			}
			tr.child("lsh.hash", c.decide, time.Since(t))

			buckets = buckets[:0]
			t = time.Now()
			for k := 0; k < L; k++ {
				if b := tabs.Table(k).Buckets[keys[k]]; b != nil {
					buckets = append(buckets, b)
				}
			}
			tr.child("lsh.lookup", c.decide, time.Since(t))
			hit, probed = hit+len(buckets), probed+L

			t = time.Now()
			est := tabs.EstimateCandidates(buckets, sketch)
			d := time.Since(t)
			if c.estimated {
				tr.child("hll.merge", c.decide, d)
			} else {
				// Algorithm 2 settled this decision from the collision
				// count alone; the merge is timed all the same, as its
				// own root, for hll.merge_us and hll.rel_error.
				tr.root("hll.merge", i, t, d)
			}

			// The de-duplicated candidate list, as searchBuckets builds it.
			cand = cand[:0]
			for _, b := range buckets {
				for _, id := range b.IDs {
					if !visited[j][id] {
						visited[j][id] = true
						cand = append(cand, id)
					}
				}
			}
			for _, id := range cand {
				visited[j][id] = false
			}
			if len(cand) > 0 {
				relErr = append(relErr, math.Abs(est-float64(len(cand)))/float64(len(cand)))
			}

			t = time.Now()
			if c.strategy == core.StrategyLSH {
				out = stores[j].VerifyRadius(q, cand, r, out[:0])
				d = time.Since(t)
				tr.child("pointstore.verify", c.query, d)
				verifyNS, verified = verifyNS+d, verified+len(cand)
			} else {
				out = stores[j].ScanRadius(q, r, out[:0])
				d = time.Since(t)
				tr.child("pointstore.scan", c.query, d)
				scanNS, scanned = scanNS+d, scanned+stores[j].Len()
			}
		}
	}
	m["lsh.buckets_hit_share"] = float64(hit) / float64(max(probed, 1))
	m["hll.rel_error"] = stats.Mean(relErr)
	m["pointstore.verify_ns_per_cand"] = float64(verifyNS.Nanoseconds()) / float64(max(verified, 1))
	m["pointstore.scan_ns_per_point"] = float64(scanNS.Nanoseconds()) / float64(max(scanned, 1))

	// The paper's Fig. 2 claim, as a ratio: hybrid against the better of
	// the two forced strategies. The strategies take turns over blocks
	// of 16 queries, so a slow spell of the machine hits all three alike.
	// Whoever walks a block second finds its buckets and points warm, so
	// hybrid and forced LSH swap places every block; the linear scan,
	// which touches every point whatever the query, always goes first.
	const block = 16
	orders := [2][3]int{{2, 0, 1}, {2, 1, 0}}
	var sum [3]time.Duration
	names := [3]string{"core.query_hybrid", "core.query_lsh", "core.query_linear"}
	for b := 0; b*block < len(qs); b++ {
		lo, hi := b*block, min((b+1)*block, len(qs))
		for _, which := range orders[b%2] {
			for i := lo; i < hi; i++ {
				for _, ix := range ixs {
					t := time.Now()
					switch which {
					case 0:
						ix.Query(qs[i])
					case 1:
						ix.QueryLSH(qs[i])
					default:
						ix.QueryLinear(qs[i])
					}
					d := time.Since(t)
					tr.root(names[which], i, t, d)
					sum[which] += d
				}
			}
		}
	}
	m["core.hybrid_over_best"] = float64(sum[0]) / float64(min(sum[1], sum[2]))
	return nil
}

// serverCounters reads what the children count themselves: the router's
// hedges and failed attempts, the served index's cache and quantization
// counters and, on the read-write workload, compactions, the WAL and the
// follower's re-hydrations.
func (e *engine[P]) serverCounters(dep *deployment, mut *mutator[P]) error {
	m := e.metrics
	c := newHTTPClient()
	defer c.close()
	ctx := dep.cl.ctx

	status, body, err := c.get(ctx, dep.router.url+"/metrics")
	if err != nil || status != 200 {
		return fmt.Errorf("router /metrics: status %d: %v", status, err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("router /metrics: %w", err)
	}
	family := func(name string) (sum float64) { // over its label values
		for _, s := range exp.Samples {
			if s.Name == name {
				sum += s.Value
			}
		}
		return sum
	}
	requests := max(family("hybridlsh_router_requests_total"), 1)
	m["hybridrouter.hedged_share"] = family("hybridlsh_router_hedges_total") / requests
	m["hybridrouter.failover_share"] = family("hybridlsh_router_upstream_errors_total") / requests

	var st struct {
		Cache struct {
			Hits, Misses float64
		} `json:"cache"`
		Store struct {
			Verified  float64 `json:"verified"`
			Rechecked float64 `json:"quant_rechecked"`
		} `json:"store"`
		Replication struct {
			Rehydrates float64 `json:"rehydrates"`
		} `json:"replication"`
		Compaction struct {
			Total float64 `json:"total"`
		} `json:"compaction"`
	}
	if err := c.getJSON(ctx, dep.target.url+"/stats", &st); err != nil {
		return err
	}
	m["shard.cache_hit_share"] = st.Cache.Hits / max(st.Cache.Hits+st.Cache.Misses, 1)
	m["pointstore.quant_rechecked_share"] = st.Store.Rechecked / max(st.Store.Verified, 1)
	if mut == nil {
		return nil
	}

	// The follower counts its boot-time hydrate too.
	m["replica.rehydrates"] = st.Replication.Rehydrates - 1
	if err := c.getJSON(ctx, dep.writer.url+"/stats", &st); err != nil {
		return err
	}
	m["shard.compactions"] = st.Compaction.Total
	m["shard.dead_share_max"] = mut.deadShareMax
	// A compacting delete costs an ordinary delete plus the compaction.
	var plainDeletes []float64
	for _, s := range mut.deleteLat {
		plainDeletes = append(plainDeletes, float64(s)/float64(time.Millisecond))
	}
	base, compactMS := median(plainDeletes), 0.0
	for _, d := range mut.compactLat {
		compactMS += max(float64(d)/float64(time.Millisecond)-base, 0)
	}
	m["shard.compact_ms_total"] = compactMS
	m["replica.lag_frames_max"] = float64(mut.lagMax)
	m["replica.visible_lag_p50_ms"] = percentile(durationsMS(mut.visible), 0.50)
	e.samples["replica.visible_lag_p50_ms"] = len(mut.visible)
	walBytes := int64(0)
	entries, err := os.ReadDir(dep.walDir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			walBytes += info.Size()
		}
	}
	m["replica.wal_bytes_per_point"] = float64(walBytes) / float64(max(mut.nAppended, 1))
	return nil
}
