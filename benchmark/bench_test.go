package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/vector"
)

func TestInputsArePinnedAndTrafficFollowsTheSeed(t *testing.T) {
	w := findWorkload("dense128-batch")
	d1, q1 := dense128Data(w)
	d2, q2 := dense128Data(w)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("dense128Data: two calls, different inputs")
	}
	if len(d1) != dense128N || len(q1) != w.Queries || len(q1[0]) != dense128Dim {
		t.Fatalf("dense128Data: %d points, %d queries of dim %d", len(d1), len(q1), len(q1[0]))
	}

	c := findWorkload("corel-report")
	cd1, cq1 := corelData(c)
	cd2, cq2 := corelData(c)
	if !reflect.DeepEqual(cd1, cd2) || !reflect.DeepEqual(cq1, cq2) {
		t.Fatal("corelData: two calls, different inputs")
	}

	// What the seed draws: the request order and the mutation stream.
	order := func(seed uint64) []int {
		e := &engine[vector.Dense]{w: c, sp: denseSpace, o: runOpts{seed: seed}, queries: cq1}
		e.buildRequests()
		return e.order
	}
	if !slices.Equal(order(5), order(5)) {
		t.Fatal("same seed, different request order")
	}
	if slices.Equal(order(5), order(6)) {
		t.Fatal("different seeds, same request order")
	}
	if slices.Equal(newRand(5, "order").Perm(50), newRand(5, "delete").Perm(50)) {
		t.Fatal("newRand: purposes share a stream")
	}
}

func TestBeaconsKeepTheirDistance(t *testing.T) {
	const dim = 32
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if d := vector.L2(beaconDense(i, dim), beaconDense(j, dim)); d < 1 {
				t.Fatalf("beacons %d and %d are %v apart, want >= 1", i, j, d)
			}
		}
	}
}

func TestDeletesMoveOnToAppendedIDs(t *testing.T) {
	m := &mutator[vector.Dense]{delOrder: []int{7, 3, 5}}
	for id := int32(100); id < 100+3*mutateBatch; id++ {
		m.liveAppended = append(m.liveAppended, id)
	}
	first := m.nextDeletes()
	if len(first) != mutateBatch || !slices.Equal(first[:4], []int32{7, 3, 5, 100}) {
		t.Fatalf("first delete = %v, want the 3 build-time ids, then appended ids from 100", first)
	}
	second := m.nextDeletes()
	if len(second) != mutateBatch || second[0] != first[mutateBatch-1]+1 {
		t.Fatalf("second delete = %v, want %d appended ids continuing after %d", second, mutateBatch, first[mutateBatch-1])
	}
	m.nextDeletes()
	if rest := m.nextDeletes(); len(rest) != 3 || len(m.nextDeletes()) != 0 {
		t.Fatalf("the last 3 live ids came out as %v", rest)
	}
}

func TestTruthL2MatchesPlainScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]vector.Dense, 500)
	for i := range data {
		data[i] = make(vector.Dense, 19) // not a multiple of the abandon block
		for j := range data[i] {
			data[i][j] = r.Float32()
		}
	}
	for _, q := range data[:20] {
		var want []int32
		for i, p := range data {
			if vector.L2(p, q) <= 1.2 {
				want = append(want, int32(i))
			}
		}
		if got := truthL2(data, q, 1.2); !slices.Equal(got, want) {
			t.Fatalf("truthL2 = %v, plain scan = %v", got, want)
		}
	}
}

func TestPercentileAndSupport(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of an empty sample is not 0")
	}
	// The p99 needs ten samples beyond it: 1000 carry it, 999 do not.
	if !supported(1000, 0.99) || supported(999, 0.99) {
		t.Error("supported(n, 0.99) does not flip at n = 1000")
	}
	if !supported(20, 0.5) || supported(19, 0.5) {
		t.Error("supported(n, 0.5) does not flip at n = 20")
	}
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median(5,1,4) = %v", got)
	}
	if got := median([]float64{5, 1, 4, 2}); got != 3 {
		t.Errorf("median(5,1,4,2) = %v", got)
	}
}

func TestWindowPercentile(t *testing.T) {
	// Five windows, each at its own level, the last one short.
	var wins [][]float64
	for w := 0; w < 5; w++ {
		win := make([]float64, 1000)
		for i := range win {
			win[i] = float64(w*10000 + i)
		}
		wins = append(wins, win)
	}
	wins[4] = wins[4][:500]
	// The median of the five per-window values is the middle window's,
	// whatever the outer windows read; n counts every sample.
	if got, n := windowPercentile(wins, 0.5); got != 20499 || n != 4500 {
		t.Errorf("windowPercentile(0.5) = %v over %d samples, want the middle window's median 20499 over 4500", got, n)
	}
	if got, n := windowPercentile(wins, 0.99); got != 20989 || n != 4500 {
		t.Errorf("windowPercentile(0.99) = %v over %d samples, want the middle window's p99 20989 over 4500", got, n)
	}
	p99 := metricDef{Name: "x_p99", Pct: 0.99}
	if !p99.stands(1000) || p99.stands(999) || !(metricDef{Name: "qps"}).stands(1) {
		t.Error("stands: a p99 needs 1000 samples, a plain metric none")
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	tr := newTracer()
	root := tr.root("query", 1, tr.epoch, 1000)
	decide := tr.child("decide", root, 300)
	tr.child("hash", decide, 100)
	tr.child("lookup", decide, 50)
	tr.child("verify", root, 500)
	self := selfTimes(tr.spans)
	st := groupSpans(tr.spans)
	for name, want := range map[string]int64{"query": 200, "decide": 150, "hash": 100, "lookup": 50, "verify": 500} {
		for i, s := range tr.spans {
			if s.Name == name && self[i] != want {
				t.Errorf("self(%s) = %d, want %d", name, self[i], want)
			}
		}
		if len(st.self[name]) != 1 {
			t.Errorf("groupSpans lost %s", name)
		}
	}
	// Children re-based one after the other, inside the parent.
	if h, l := tr.spans[2], tr.spans[3]; h.Start != 0 || h.End != 100 || l.Start != 100 || l.End != 150 || l.Request != 1 {
		t.Errorf("re-based children at [%d,%d] and [%d,%d]", h.Start, h.End, l.Start, l.End)
	}

	// Children that overlap each other or stick out of the parent cover
	// only what they cover: self time never goes negative.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 60},
		{ID: 2, Parent: 0, Start: 40, End: 80},
		{ID: 3, Parent: 0, Start: 90, End: 150},
	}
	if got := selfTimes(spans)[0]; got != 20 {
		t.Errorf("self with overlapping children = %d, want 20", got)
	}
	spans = []span{{ID: 0, Parent: -1, Start: 0, End: 100}, {ID: 1, Parent: 0, Start: 0, End: 250}}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("self under a longer child = %d, want 0", got)
	}
}

func TestCountIDsMatchesUnmarshal(t *testing.T) {
	// The wire shape of hybridserve's queryResult, as far as it matters.
	type wireAnswer struct {
		IDs        []int32 `json:"ids"`
		LSHShards  int     `json:"lsh_shards"`
		Collisions int     `json:"collisions"`
		WallUS     float64 `json:"wall_us"`
	}
	r := rand.New(rand.NewSource(42))
	randomAnswer := func() wireAnswer {
		ids := make([]int32, r.Intn(40)) // often empty: "ids":[]
		if r.Intn(20) == 0 {
			ids = make([]int32, 15000)
		}
		for i := range ids {
			ids[i] = r.Int31()
		}
		return wireAnswer{IDs: ids, LSHShards: r.Intn(3), Collisions: r.Intn(1000), WallUS: r.Float64() * 1e4}
	}
	for i := 0; i < 200; i++ {
		// A /query body, then a /batch body.
		for _, n := range []int{1, 2 + r.Intn(70)} {
			results := make([]wireAnswer, n)
			wantIDs := 0
			for k := range results {
				results[k] = randomAnswer()
				wantIDs += len(results[k].IDs)
			}
			path, body := "/query", any(results[0])
			if n > 1 {
				path, body = "/batch", map[string]any{"results": results}
			}
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			answers, err := decodeAnswers(path, raw)
			if err != nil {
				t.Fatal(err)
			}
			decoded := 0
			for _, a := range answers {
				decoded += len(a.IDs)
			}
			gotAnswers, gotIDs := countIDs(raw)
			if gotAnswers != n || len(answers) != n || gotIDs != wantIDs || decoded != wantIDs {
				t.Fatalf("countIDs = %d answers, %d ids; json.Unmarshal = %d answers, %d ids; want %d, %d", gotAnswers, gotIDs, len(answers), decoded, n, wantIDs)
			}
		}
	}
	if a, ids := countIDs([]byte(`{"error":"bad request"}`)); a != 0 || ids != 0 {
		t.Errorf("countIDs on an error body = %d, %d", a, ids)
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (hybrid serve) x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 1234 567 0 0 20 0 9 0 100 200 300"
	if ticks, err := parseStatTicks(stat); err != nil || ticks != 1801 {
		t.Errorf("parseStatTicks = %d, %v, want 1801", ticks, err)
	}
	if _, err := parseStatTicks("garbage"); err == nil {
		t.Error("parseStatTicks accepted garbage")
	}
	status := "Name:\thybridserve\nVmPeak:\t  999 kB\nVmHWM:\t   73216 kB\nVmRSS:\t 100 kB\n"
	if kb, err := parseVmHWM(status); err != nil || kb != 73216 {
		t.Errorf("parseVmHWM = %d, %v, want 73216", kb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM found a line that is not there")
	}
	if total, steal, err := parseHostTicks("cpu  4650601 0 461238 2477442 9124 0 72355 55366 0 0"); err != nil || total != 7726126 || steal != 55366 {
		t.Errorf("parseHostTicks = %d, %d, %v, want 7726126, 55366", total, steal, err)
	}
	if _, _, err := parseHostTicks("cpu0 1 2 3 4 5 6 7 8"); err == nil {
		t.Error("parseHostTicks took a per-CPU line for the machine's")
	}
}

func TestContractMetricsReportEveryName(t *testing.T) {
	got := contractMetrics(map[string]float64{"qps": 12.5}, endToEnd)
	if len(got) != len(endToEnd) || got["qps"].Value != 12.5 || got["qps"].Unit != "1/s" {
		t.Errorf("contractMetrics = %v", got)
	}
	if v, ok := got["setup_s"]; !ok || v.Value != 0 || v.Unit != "s" {
		t.Errorf("a metric the run did not measure is reported as %v, %v", v, ok)
	}
}

// TestEndToEnd boots the real binaries for a two-second run of each
// mode; it needs BENCH_E2E=1 because it builds and starts children.
func TestEndToEnd(t *testing.T) {
	if os.Getenv("BENCH_E2E") != "1" {
		t.Skip("set BENCH_E2E=1 to build and boot hybridserve and hybridrouter")
	}
	env, err := newEnv("")
	if err != nil {
		t.Fatal(err)
	}
	defer env.cleanup()
	ctx := context.Background()
	if err := env.buildBinaries(ctx); err != nil {
		t.Fatal(err)
	}
	w := findWorkload("corel-readwrite")
	for _, traced := range []bool{false, true} {
		res, err := w.run(ctx, env, w, runOpts{seed: 1, seconds: 2, traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		defs := untracedDefs()
		if traced {
			defs = tracedDefs()
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("traced=%v: metric %s was not measured", traced, d.Name)
			}
		}
	}
}
