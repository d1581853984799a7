package main

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/rng"
)

// mutator is the read-write workload's second connection: an open loop
// of mutateOpsPerSec operations a second straight to the writer,
// alternating an append of mutateBatch fresh points with a delete of
// mutateBatch live ids. Every operation is timed from the
// instant it was due, so a stall (a delete that triggers a compaction, a
// slow fsync) is charged to the operations queued behind it too. Every
// beaconEvery-th append carries a beacon point whose id the same
// connection then polls the router for, in the gaps of the schedule,
// until the follower reports it.
type mutator[P any] struct {
	e   *engine[P]
	dep *deployment
	// track polls the writer's /stats and both replication cursors after
	// every operation — the traced run's view of compactions and lag.
	track bool
	c     *httpClient
	rnd   *rng.Rand

	// Deletes take the build-time ids in a seeded order and, once those
	// run out (after about 100 s of stream), the oldest appended ids, so
	// live n stays constant however long the stream runs. Beacons are
	// left out of liveAppended: one deleted while still polled for would
	// read as an append that never became visible.
	delOrder           []int
	delNext            int
	liveAppended       []int32
	appendNo, beaconNo int

	// What the answers of concurrent queries are judged against: when
	// each id's delete was acknowledged (absent while live) and the
	// point behind every appended id.
	deletedAt map[int32]time.Time
	appended  map[int32]P
	nAppended int

	pending []beaconWait
	visible []time.Duration

	compactions  int64
	compactLat   []time.Duration // latency of the deletes that compacted
	deleteLat    []time.Duration // latency of those that did not
	deadShareMax float64
	lagMax       uint64
}

type beaconWait struct {
	id    int32
	body  []byte
	acked time.Time
}

// opSample is one mutation, timed from when it was due.
type opSample struct {
	due, lat time.Duration
}

// mutPhase is what the stream did during one closed-loop phase.
type mutPhase struct {
	appends, deletes []opSample
	late             []time.Duration // how late each operation was sent
}

func newMutator[P any](e *engine[P], dep *deployment, track bool) *mutator[P] {
	return &mutator[P]{
		e: e, dep: dep, track: track,
		c:         newHTTPClient(),
		rnd:       newRand(e.o.seed, "mutate"),
		delOrder:  newRand(e.o.seed, "delete").Perm(len(e.data)),
		deletedAt: map[int32]time.Time{},
		appended:  map[int32]P{},
	}
}

// beaconTimeout is how long an acknowledged append may stay invisible
// through the router before it counts as a failed request.
const beaconTimeout = 5 * time.Second

// run sends the stream for total, on the schedule that began at start.
func (m *mutator[P]) run(ctx context.Context, start time.Time, total time.Duration) *mutPhase {
	ph := &mutPhase{}
	interval := time.Second / mutateOpsPerSec
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if due >= total {
			return ph
		}
		for {
			wait := time.Until(start.Add(due))
			if wait <= 0 {
				break
			}
			if len(m.pending) > 0 && wait > 3*time.Millisecond {
				m.pollBeacon(ctx)
				wait = min(5*time.Millisecond, time.Until(start.Add(due)))
			}
			select {
			case <-ctx.Done():
				return ph
			case <-time.After(wait):
			}
		}
		ph.late = append(ph.late, time.Since(start)-due)
		ok := false
		if i%2 == 0 {
			ok = m.doAppend(ctx)
			ph.appends = append(ph.appends, opSample{due: due, lat: time.Since(start) - due})
		} else {
			t0 := time.Now()
			ok = m.doDelete(ctx)
			ph.deletes = append(ph.deletes, opSample{due: due, lat: time.Since(start) - due})
			if ok && m.track {
				m.trackWriter(ctx, time.Since(t0))
			}
		}
		if ctx.Err() != nil {
			return ph
		}
		m.e.attempted.Add(1)
		if !ok {
			m.e.failed.Add(1)
		}
	}
}

func (m *mutator[P]) doAppend(ctx context.Context) bool {
	pts := make([]P, mutateBatch)
	for i := range pts {
		pts[i] = m.e.sp.fresh(m.rnd, m.e.data)
	}
	beacon := m.appendNo%beaconEvery == beaconEvery-1
	m.appendNo++
	if beacon {
		pts[0] = m.e.sp.beacon(m.beaconNo, m.e.data[0])
		m.beaconNo++
	}
	body := []byte(`{"points":[`)
	for i, p := range pts {
		if i > 0 {
			body = append(body, ',')
		}
		body = m.e.sp.appendJSON(body, p)
	}
	body = append(body, `]}`...)
	status, resp, err := m.c.post(ctx, m.dep.writer.url+"/append", body)
	acked := time.Now()
	var out struct {
		IDs []int32 `json:"ids"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &out) != nil || len(out.IDs) != len(pts) {
		return false
	}
	for i, id := range out.IDs {
		m.appended[id] = pts[i]
		if i > 0 || !beacon {
			m.liveAppended = append(m.liveAppended, id)
		}
	}
	m.nAppended += len(pts)
	if beacon {
		q := m.e.sp.appendJSON([]byte(`{"point":`), pts[0])
		m.pending = append(m.pending, beaconWait{id: out.IDs[0], body: append(q, '}'), acked: acked})
	}
	return true
}

// nextDeletes picks the ids of one delete.
func (m *mutator[P]) nextDeletes() []int32 {
	ids := make([]int32, 0, mutateBatch)
	for len(ids) < mutateBatch && m.delNext < len(m.delOrder) {
		ids = append(ids, int32(m.delOrder[m.delNext]))
		m.delNext++
	}
	take := min(mutateBatch-len(ids), len(m.liveAppended))
	ids = append(ids, m.liveAppended[:take]...)
	m.liveAppended = m.liveAppended[take:]
	return ids
}

func (m *mutator[P]) doDelete(ctx context.Context) bool {
	ids := m.nextDeletes()
	body := []byte(`{"ids":[`)
	for i, id := range ids {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(id), 10)
	}
	body = append(body, `]}`...)
	status, resp, err := m.c.post(ctx, m.dep.writer.url+"/delete", body)
	acked := time.Now()
	var out struct {
		Deleted int `json:"deleted"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &out) != nil || out.Deleted != len(ids) {
		return false
	}
	for _, id := range ids {
		m.deletedAt[id] = acked
	}
	return true
}

// pollBeacon asks the router once for the oldest pending beacon.
func (m *mutator[P]) pollBeacon(ctx context.Context) {
	b := m.pending[0]
	m.e.attempted.Add(1)
	status, resp, err := m.c.post(ctx, m.dep.router.url+"/query", b.body)
	var a answer
	if err != nil || status != http.StatusOK || json.Unmarshal(resp, &a) != nil {
		if ctx.Err() == nil {
			m.e.failed.Add(1)
		}
		m.pending = m.pending[1:]
		return
	}
	switch {
	case slices.Contains(a.IDs, b.id):
		m.visible = append(m.visible, time.Since(b.acked))
		m.pending = m.pending[1:]
	case time.Since(b.acked) > beaconTimeout:
		m.e.failed.Add(1)
		m.pending = m.pending[1:]
	}
}

// trackWriter reads, after a delete that took lat, what the writer says
// about compaction and how far the follower's cursor trails the
// writer's. A delete during which the compaction count rose ran that
// compaction synchronously, so its latency prices it.
func (m *mutator[P]) trackWriter(ctx context.Context, lat time.Duration) {
	var st struct {
		ShardSizes []int `json:"shard_sizes"`
		Compaction struct {
			Total int64 `json:"total"`
			Dead  []int `json:"dead_in_buckets"`
		} `json:"compaction"`
	}
	if m.c.getJSON(ctx, m.dep.writer.url+"/stats", &st) != nil {
		return
	}
	if st.Compaction.Total > m.compactions {
		m.compactions = st.Compaction.Total
		m.compactLat = append(m.compactLat, lat)
	} else {
		m.deleteLat = append(m.deleteLat, lat)
	}
	for j, dead := range st.Compaction.Dead {
		if j < len(st.ShardSizes) && st.ShardSizes[j] > 0 {
			m.deadShareMax = max(m.deadShareMax, float64(dead)/float64(st.ShardSizes[j]))
		}
	}
	var w, f struct {
		Seq uint64 `json:"seq"`
	}
	if m.c.getJSON(ctx, m.dep.writer.url+"/replica/status", &w) == nil &&
		m.c.getJSON(ctx, m.dep.target.url+"/replica/status", &f) == nil && w.Seq > f.Seq {
		m.lagMax = max(m.lagMax, w.Seq-f.Seq)
	}
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// report reduces the stream's samples that were due inside the measured
// interval of res. The appends of a run are too few for per-window
// percentiles, so they are pooled; the sample count is reported so a
// reader can see whether ten lie beyond the p99.
func (m *mutator[P]) report(res *phaseResult, metrics map[string]float64, samples map[string]int) {
	ph := res.mut
	var lats []time.Duration
	for _, s := range ph.appends {
		if s.due >= res.from && s.due < res.to {
			lats = append(lats, s.lat)
		}
	}
	ms := durationsMS(lats)
	metrics["append_p50_ms"], samples["append_p50_ms"] = percentile(ms, 0.50), len(ms)
	metrics["append_p99_ms"], samples["append_p99_ms"] = percentile(ms, 0.99), len(ms)
	metrics["loadgen.late_p99_ms"] = percentile(durationsMS(ph.late), 0.99)
	samples["loadgen.late_p99_ms"] = len(ph.late)
}

// staleAllowance is how stale a read through the follower may be. The
// follower tails the writer's delta log by polling every 100 ms, so an
// id whose delete the writer acknowledged a moment before a query was
// sent is still reported by design; ten polls later it is an error.
const staleAllowance = time.Second

// verifyReadWrite judges the answers kept during the run now that every
// acknowledgement is known: ids distinct; every id a build-time or an
// acknowledged appended one, within the radius, and not deleted more
// than staleAllowance before the request was sent.
func (e *engine[P]) verifyReadWrite(checks []rwCheck, m *mutator[P]) {
	for _, c := range checks {
		qi := e.reqs[c.req].first
		q := e.queries[qi]
		truth := e.truth[qi]
		ids := c.ids
		slices.Sort(ids)
		ok := true
		for i, id := range ids {
			switch {
			case i > 0 && id == ids[i-1]:
				ok = false
			case id < 0:
				ok = false
			case int(id) < len(e.data):
				_, inTruth := slices.BinarySearch(truth, id)
				if !inTruth && !e.sp.within(e.data[id], q, e.w.Radius) {
					ok = false
				}
			default:
				p, known := m.appended[id]
				if !known || !e.sp.within(p, q, e.w.Radius) {
					ok = false
				}
			}
			if at, deleted := m.deletedAt[id]; deleted && at.Add(staleAllowance).Before(c.sent) {
				ok = false
			}
		}
		if !ok {
			e.failed.Add(1)
		}
	}
}
