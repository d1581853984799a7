package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// runOpts are the arguments of one run of one workload.
type runOpts struct {
	seed    uint64
	seconds float64 // measured duration
	traced  bool
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"answers_digest"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples holds the sample count behind each timing metric.
	Samples map[string]int `json:"samples"`
	// Budget holds the traced run's reference numbers BUDGET.md sets the
	// stage sums against (the paired phase's own round-trip medians and
	// the two throughputs behind trace.overhead_share).
	Budget map[string]float64 `json:"budget,omitempty"`
}

// recallFloor fails a run whose mean recall falls below the 1 - delta
// the indexes are built for; the regression bound on recall is the much
// tighter one in the metric table.
const recallFloor = 0.9

// runner binds a workload's point type: its space and its generator.
func runner[P any](sp *space[P], gen func(*workload) (data, queries []P)) func(context.Context, *env, *workload, runOpts) (*runResult, error) {
	return func(ctx context.Context, env *env, w *workload, o runOpts) (*runResult, error) {
		return (&engine[P]{env: env, w: w, sp: sp, gen: gen, o: o}).run(ctx)
	}
}

// request is one HTTP request of a pass over the query set: a /query for
// one point or a /batch for a run of them.
type request struct {
	body     []byte
	first, n int // covers queries[first : first+n]
}

// engine runs one workload over point type P.
type engine[P any] struct {
	env *env
	w   *workload
	sp  *space[P]
	gen func(w *workload) (data, queries []P)
	o   runOpts

	data, queries []P
	path          string // "/query" or "/batch"
	reqs          []request
	order         []int     // seeded order the load generators walk reqs in
	truth         [][]int32 // per query, ascending
	expectIDs     []int     // per request: ids its checked answer carried

	waited            time.Duration // spent in waitQuiet so far
	attempted, failed atomic.Int64
	metrics           map[string]float64
	samples           map[string]int
	budget            map[string]float64
}

func (e *engine[P]) run(ctx context.Context) (*runResult, error) {
	e.metrics = map[string]float64{}
	e.samples = map[string]int{}
	res := &runResult{Workload: e.w.Name, Seed: e.o.seed, Traced: e.o.traced, Metrics: e.metrics, Samples: e.samples}

	for _, name := range e.procNames() {
		// One log per child per run; the boots within the run append.
		os.Remove(e.logPath(name))
	}
	t0 := time.Now()
	e.data, e.queries = e.gen(e.w)
	e.buildRequests()
	e.progress("generated %d points and %d queries in %.1fs", len(e.data), len(e.queries), time.Since(t0).Seconds())
	if err := e.waitQuiet(ctx); err != nil {
		return nil, err
	}
	dep, err := e.deploy(ctx)
	if err != nil {
		return nil, err
	}
	defer dep.close()

	t0 = time.Now()
	e.truth = allTruth(e.sp, e.data, e.queries, e.w.Radius)
	e.progress("ground truth of %d queries over %d points in %.1fs", len(e.queries), len(e.data), time.Since(t0).Seconds())
	t0 = time.Now()
	digest, recall, err := e.checkedPass(dep)
	if err != nil {
		return nil, clusterErr(dep.cl, err)
	}
	res.Digest = digest
	e.progress("checked pass of %d requests in %.1fs, recall %.4f", len(e.reqs), time.Since(t0).Seconds(), recall)

	if err := e.waitQuiet(dep.cl.ctx); err != nil {
		return nil, clusterErr(dep.cl, err)
	}
	if e.o.traced {
		err = e.tracedRun(dep)
	} else {
		err = e.untracedRun(dep)
	}
	if err != nil {
		return nil, clusterErr(dep.cl, err)
	}
	res.Budget = e.budget
	res.Attempted, res.Failed = e.attempted.Load(), e.failed.Load()
	e.metrics["error_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0 && recall >= recallFloor
	return res, nil
}

// A run waits for the hypervisor before it sets up and before it
// measures. On the box this was written on other guests take the CPUs
// away every 15 to 30 minutes for a minute or two, and the same requests
// then run two to six times slower (a 5 s slice that /proc/stat put at
// 33 % steal answered half as many as its neighbours; quiet slices read
// 0.0 to 0.3 %), which no estimator inside a 15 s run survives. A run
// therefore samples steal over quietSample and goes on once a sample is
// at most quietSteal, or once it has waited quietBudget in all (the
// driver allows a run 180 s).
const (
	quietSteal  = 0.02
	quietSample = time.Second
	quietBudget = 75 * time.Second
)

func (e *engine[P]) waitQuiet(ctx context.Context) error {
	for {
		share, err := stealShare(quietSample)
		if err != nil {
			return err
		}
		if err := context.Cause(ctx); err != nil {
			return err
		}
		if share <= quietSteal {
			return nil
		}
		if e.waited += quietSample; e.waited > quietBudget {
			e.progress("steal still %.0f %% after %s of waiting, going on", 100*share, quietBudget)
			return nil
		}
		e.progress("steal %.0f %%, waiting", 100*share)
	}
}

// stealShare is the share of the machine's CPU time over the next d that
// the hypervisor gives to other guests. Steal is only accounted while
// this guest has work to run, so every CPU spins for the sample.
func stealShare(d time.Duration) (float64, error) {
	total0, steal0, err := hostTicks()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	until := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
			}
		}()
	}
	wg.Wait()
	total1, steal1, err := hostTicks()
	if err != nil {
		return 0, err
	}
	return float64(steal1-steal0) / float64(max(total1-total0, 1)), nil
}

// progress reports on standard error where a run is; standard output is
// kept for the metrics.
func (e *engine[P]) progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s %s: %s\n", time.Now().Format("15:04:05.000"), e.w.Name, fmt.Sprintf(format, args...))
}

// clusterErr prefers the reason the cluster died for over the transport
// error that death caused downstream.
func clusterErr(cl *cluster, err error) error {
	if cause := context.Cause(cl.ctx); cause != nil {
		return cause
	}
	return err
}

func (e *engine[P]) procNames() []string {
	if e.w.ReadWrite {
		return []string{"writer", "follower", "router"}
	}
	return []string{"serve", "router"}
}

func (e *engine[P]) logPath(procName string) string {
	return filepath.Join(e.env.outDir, e.w.Name+"-"+procName+".log")
}

// ---- set-up ----

// deployment is one booted stack plus what building it cost.
type deployment struct {
	cl *cluster
	// router is what clients talk to, target the hybridserve it fronts,
	// writer where mutations go (nil on read-only workloads).
	router, target, writer *proc
	dir                    string // temp dir holding the snapshot and the WAL
	snapPath               string
	snapBytes              int64
	walDir                 string
	setupS, snapWriteS     float64
}

// deploy sets the stack up: three times for an untraced run, whose
// setup_s is the median (the first two are torn down again), once for a
// traced one.
func (e *engine[P]) deploy(ctx context.Context) (*deployment, error) {
	rounds := 3
	if e.o.traced {
		rounds = 1
	}
	var setups []float64
	for i := 0; ; i++ {
		dep, err := e.setup(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dep.setupS)
		e.progress("set-up %d of %d in %.2fs (snapshot %d bytes written in %.2fs)", i+1, rounds, dep.setupS, dep.snapBytes, dep.snapWriteS)
		if i == rounds-1 {
			e.metrics["setup_s"] = median(setups)
			e.samples["setup_s"] = len(setups)
			e.metrics["snapshot_bytes_per_point"] = float64(dep.snapBytes) / float64(len(e.data))
			e.metrics["persist.snapshot_write_s"] = dep.snapWriteS
			return dep, nil
		}
		dep.close()
	}
}

// close stops the children and removes the deployment's files.
func (d *deployment) close() {
	d.cl.stop()
	os.RemoveAll(d.dir)
}

// setup is everything setup_s times: build the index through the public
// API with the pinned cost model, write the snapshot, boot the children
// and wait until each answers /healthz. Generating the inputs is not in
// it: that is the benchmark's own code, not the system's, and once per
// run is all the driver's time cap leaves room for.
func (e *engine[P]) setup(ctx context.Context) (dep *deployment, err error) {
	t0 := time.Now()
	ix, err := e.sp.build(e.data, e.w)
	if err != nil {
		return nil, fmt.Errorf("building the index: %w", err)
	}
	dir, err := e.env.mkTemp(e.w.Name)
	if err != nil {
		return nil, err
	}
	dep = &deployment{dir: dir, snapPath: filepath.Join(dir, "index.snap")}
	tw := time.Now()
	if dep.snapBytes, err = writeSnapshot(dep.snapPath, ix); err != nil {
		return nil, fmt.Errorf("writing the snapshot: %w", err)
	}
	dep.snapWriteS = time.Since(tw).Seconds()

	dep.cl = newCluster(ctx)
	defer func() {
		if err != nil {
			dep.cl.stop()
		}
	}()
	serve := filepath.Join(e.env.binDir, "hybridserve")
	boot := func(name string, args ...string) (*proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		bin := serve
		if name == "router" {
			bin = filepath.Join(e.env.binDir, "hybridrouter")
		}
		return dep.cl.start(name, bin, addr, e.logPath(name), args...)
	}
	// -recalibrate off keeps the pinned cost model; cache, quantization
	// and trace sampling are off by default.
	if e.w.ReadWrite {
		dep.walDir = filepath.Join(dir, "wal")
		if dep.writer, err = boot("writer", "-metric", e.sp.metric, "-snapshot", dep.snapPath, "-recalibrate", "off",
			"-waldir", dep.walDir, "-fsync", "always", "-compactthreshold", compactThreshold); err != nil {
			return nil, err
		}
		if dep.target, err = boot("follower", "-metric", e.sp.metric, "-hydrate", dep.writer.url); err != nil {
			return nil, err
		}
	} else {
		if dep.target, err = boot("serve", "-metric", e.sp.metric, "-snapshot", dep.snapPath, "-recalibrate", "off"); err != nil {
			return nil, err
		}
	}
	if dep.router, err = boot("router", "-replicas", dep.target.url); err != nil {
		return nil, err
	}
	dep.setupS = time.Since(t0).Seconds()

	// A hybridserve that finds no snapshot serves a synthetic index
	// instead of failing; make sure that is not what answered.
	var st struct {
		Live int `json:"live"`
	}
	if err = getJSON(dep.cl.ctx, dep.target.url+"/stats", &st); err != nil {
		return nil, err
	}
	if st.Live != len(e.data) {
		return nil, fmt.Errorf("%s serves %d points, the snapshot holds %d", dep.target.name, st.Live, len(e.data))
	}
	return dep, nil
}

func writeSnapshot(path string, ix io.WriterTo) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := ix.WriteTo(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// buildRequests encodes the query set once into request bodies and draws
// the order the load generators send them in.
func (e *engine[P]) buildRequests() {
	e.path, e.reqs = "/query", nil
	per := 1
	if e.w.Batch > 0 {
		e.path, per = "/batch", e.w.Batch
	}
	for first := 0; first < len(e.queries); first += per {
		n := min(per, len(e.queries)-first)
		var b []byte
		if e.w.Batch > 0 {
			b = append(b, `{"points":[`...)
			for i := 0; i < n; i++ {
				if i > 0 {
					b = append(b, ',')
				}
				b = e.sp.appendJSON(b, e.queries[first+i])
			}
			b = append(b, `]}`...)
		} else {
			b = e.sp.appendJSON(append(b, `{"point":`...), e.queries[first])
			b = append(b, '}')
		}
		e.reqs = append(e.reqs, request{body: b, first: first, n: n})
	}
	e.order = newRand(e.o.seed, "order").Perm(len(e.reqs))
}

// ---- HTTP plumbing ----

// httpClient is one keep-alive connection with a reusable body buffer.
type httpClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// post sends body and reads the whole answer; the returned bytes are
// valid until the next call.
func (c *httpClient) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *httpClient) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *httpClient) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// getJSON decodes a 200 answer of url into v.
func getJSON(ctx context.Context, url string, v any) error {
	c := newHTTPClient()
	defer c.close()
	return c.getJSON(ctx, url, v)
}

func (c *httpClient) getJSON(ctx context.Context, url string, v any) error {
	status, body, err := c.get(ctx, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(body, v)
}

// answer is the part of hybridserve's queryResult the benchmark reads.
type answer struct {
	IDs    []int32 `json:"ids"`
	WallUS float64 `json:"wall_us"`
}

// decodeAnswers fully decodes a /query or /batch response body.
func decodeAnswers(path string, body []byte) ([]answer, error) {
	if path == "/batch" {
		var b struct {
			Results []answer `json:"results"`
		}
		err := json.Unmarshal(body, &b)
		return b.Results, err
	}
	var a answer
	err := json.Unmarshal(body, &a)
	return []answer{a}, err
}

var idsKey = []byte(`"ids":[`)

// countIDs counts the answers in a response body and the ids they carry
// by scanning for each "ids":[...] array and counting its commas, which
// is what the timed windows use in place of decoding 15 000-element
// arrays. It relies on encoding/json's output: no whitespace, integers
// only inside the array.
func countIDs(body []byte) (answers, ids int) {
	for {
		i := bytes.Index(body, idsKey)
		if i < 0 {
			return answers, ids
		}
		body = body[i+len(idsKey):]
		end := bytes.IndexByte(body, ']')
		if end < 0 {
			return answers, ids
		}
		answers++
		if end > 0 {
			ids += 1 + bytes.Count(body[:end], []byte{','})
		}
		body = body[end:]
	}
}

// ---- checked pass ----

// checkedPass sends every request once through the router, decodes each
// answer fully and verifies it against the brute-force truth. It is
// untimed and, on the read-write workload, runs before the first
// mutation. Wrong answers count as failed requests. The digest is
// SHA-256 over every answer, in query order: its id count, then its ids
// ascending.
func (e *engine[P]) checkedPass(dep *deployment) (digest string, recall float64, err error) {
	sorted := make([][]int32, len(e.queries))
	recalls := make([]float64, len(e.queries))
	e.expectIDs = make([]int, len(e.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newHTTPClient()
			defer c.close()
			for {
				ri := int(next.Add(1)) - 1
				if ri >= len(e.reqs) {
					return
				}
				rq := e.reqs[ri]
				e.attempted.Add(1)
				status, body, err := c.post(dep.cl.ctx, dep.router.url+e.path, rq.body)
				if err != nil {
					errc <- err
					return
				}
				answers, derr := decodeAnswers(e.path, body)
				if status != http.StatusOK || derr != nil || len(answers) != rq.n {
					e.failed.Add(1)
					continue
				}
				ok := true
				for i, a := range answers {
					qi := rq.first + i
					var good bool
					sorted[qi], recalls[qi], good = e.verify(qi, a.IDs)
					ok = ok && good
					e.expectIDs[ri] += len(a.IDs)
				}
				if !ok {
					e.failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return "", 0, fmt.Errorf("checked pass: %w", err)
	default:
	}
	h := sha256.New()
	for _, ids := range sorted {
		binary.Write(h, binary.LittleEndian, uint32(len(ids)))
		binary.Write(h, binary.LittleEndian, ids)
	}
	recall = stats.Mean(recalls)
	e.metrics["recall"] = recall
	e.samples["recall"] = len(recalls)
	return hex.EncodeToString(h.Sum(nil)), recall, nil
}

// verify checks one answer over the build-time points: ids distinct, in
// range and within the radius of the query. It returns the ids
// ascending, the answer's recall against the truth, and whether the
// answer is correct.
func (e *engine[P]) verify(qi int, ids []int32) (sorted []int32, recall float64, ok bool) {
	sorted = slices.Clone(ids)
	slices.Sort(sorted)
	ok = true
	truth := e.truth[qi]
	hits, j := 0, 0
	for i, id := range sorted {
		if i > 0 && id == sorted[i-1] {
			ok = false // duplicate
			continue
		}
		for j < len(truth) && truth[j] < id {
			j++
		}
		switch {
		case j < len(truth) && truth[j] == id:
			hits++
		case id < 0 || int(id) >= len(e.data) || !e.sp.within(e.data[id], e.queries[qi], e.w.Radius):
			ok = false // farther than r
		}
	}
	if len(truth) == 0 {
		return sorted, 1, ok
	}
	return sorted, float64(hits) / float64(len(truth)), ok
}
