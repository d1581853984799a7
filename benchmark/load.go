package main

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"
)

// windows is how many equal windows the measured time is cut into; every
// timing metric is the median of the per-window values.
const windows = 5

// warmup is the untimed lead-in of a measured phase of the given length:
// a tenth of it, at least a second (1.5 s before the 15 s of a run).
func warmup(measure time.Duration) time.Duration {
	return max(measure/10, time.Second)
}

// sample is one completed request of the closed loop.
type sample struct {
	end    time.Duration // completion, since the phase began
	lat    time.Duration
	points int
	reqB   int
	respB  int
	wallUS float64 // server-reported; decoded phases only
	direct bool    // sent straight to hybridserve (paired phases only)
}

// rwCheck is an answer of the read-write workload kept for verification
// after the run, when every acknowledgement it has to be judged against
// is known.
type rwCheck struct {
	sent time.Time
	req  int
	ids  []int32
}

// rwCheckEvery is the share of read-write answers decoded and kept:
// every 8th. Read-only answers are instead all checked by id count.
const rwCheckEvery = 8

// phase is one closed-loop run: the run's connections (one fewer when a
// mutation stream holds one), each sending its next request when the
// previous answer has been read in full, for warm + measure.
type phase struct {
	url string
	// directURL, when set, pairs every request through url with the same
	// request straight to this hybridserve, alternating which goes
	// first.
	directURL     string
	warm, measure time.Duration
	// decode makes the generators decode every answer fully (for
	// wall_us) instead of counting ids by byte scan; it is the traced
	// mode, and what trace.overhead_share prices.
	decode bool
	pids   []int // server-side children, for cpu_ms_per_query
}

// phaseResult is what a phase measured.
type phaseResult struct {
	start    time.Time
	samples  []sample      // all clients, completion order
	from, to time.Duration // the measured interval, since start
	// serverCPU and selfCPU are CPU seconds burnt between from and to by
	// the children and by this process.
	serverCPU, selfCPU float64
	checks             []rwCheck
	mut                *mutPhase // the mutation stream's samples, if one ran
	windowQPS          []float64 // per measured window, set by windowStats
}

// closedLoop runs one phase. mut, when not nil, is the read-write
// workload's mutation stream and runs alongside for the whole phase.
func (e *engine[P]) closedLoop(dep *deployment, ph phase, mut *mutator[P]) (*phaseResult, error) {
	ctx := dep.cl.ctx
	total := ph.warm + ph.measure
	start := time.Now()
	// The mutation stream is one of the run's connections.
	readers := clients
	if mut != nil {
		readers--
	}
	per := make([][]sample, readers)
	checks := make([][]rwCheck, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newHTTPClient()
			defer c.close()
			// Clients start at different points of the order so they
			// never send the same query at the same time.
			i := k * len(e.order) / readers
			for n := 0; time.Since(start) < total && errs[k] == nil; n++ {
				ri := e.order[i%len(e.order)]
				i++
				send := func(url string, direct bool) {
					rq := e.reqs[ri]
					sent := time.Since(start)
					e.attempted.Add(1)
					status, body, err := c.post(ctx, url+e.path, rq.body)
					lat := time.Since(start) - sent
					if err != nil && ctx.Err() != nil {
						errs[k] = err
						return
					}
					keep := mut != nil && n%rwCheckEvery == 0
					good, wallUS, ids := err == nil && status == http.StatusOK, 0.0, []int32(nil)
					if good {
						good, wallUS, ids = e.judge(ri, body, ph.decode || keep, mut != nil)
					}
					if !good {
						e.failed.Add(1)
						return
					}
					if keep {
						checks[k] = append(checks[k], rwCheck{sent: start.Add(sent), req: ri, ids: ids})
					}
					per[k] = append(per[k], sample{end: sent + lat, lat: lat, points: rq.n,
						reqB: len(rq.body), respB: len(body), wallUS: wallUS, direct: direct})
				}
				switch {
				case ph.directURL == "":
					send(ph.url, false)
				case n%2 == 0:
					send(ph.directURL, true)
					send(ph.url, false)
				default:
					send(ph.url, false)
					send(ph.directURL, true)
				}
			}
		}(k)
	}
	res := &phaseResult{start: start}
	if mut != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.mut = mut.run(ctx, start, total)
		}()
	}
	var cpuErr error
	sampleCPU := func(at time.Duration) (time.Duration, float64, float64) {
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(start.Add(at))):
		}
		cpu, err := cpuSeconds(ph.pids)
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return time.Since(start), cpu, selfCPUSeconds()
	}
	var cpu0, self0, cpu1, self1 float64
	res.from, cpu0, self0 = sampleCPU(ph.warm)
	res.to, cpu1, self1 = sampleCPU(total)
	res.serverCPU, res.selfCPU = cpu1-cpu0, self1-self0
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	for k := range per {
		res.samples = append(res.samples, per[k]...)
		res.checks = append(res.checks, checks[k]...)
	}
	slices.SortFunc(res.samples, func(a, b sample) int { return int(a.end - b.end) })
	return res, nil
}

// judge checks the body of a 200 answer to request ri. With decode it
// decodes the body fully and also returns the server-reported wall time
// (summed over a batch) and the first answer's ids; otherwise it only
// counts ids by byte scan. Without mutations an answer never changes, so
// its id count must match the checked pass; with them only the shape is
// checked here and verifyReadWrite judges the kept answers afterwards.
func (e *engine[P]) judge(ri int, body []byte, decode, mutating bool) (good bool, wallUS float64, first []int32) {
	want := e.reqs[ri].n
	if !decode {
		answers, ids := countIDs(body)
		return answers == want && (mutating || ids == e.expectIDs[ri]), 0, nil
	}
	answers, err := decodeAnswers(e.path, body)
	if err != nil || len(answers) != want {
		return false, 0, nil
	}
	ids := 0
	for _, a := range answers {
		wallUS += a.WallUS
		ids += len(a.IDs)
	}
	return mutating || ids == e.expectIDs[ri], wallUS, answers[0].IDs
}

// measured returns the samples that completed inside [from, to).
func (r *phaseResult) measured() []sample {
	lo, _ := slices.BinarySearchFunc(r.samples, r.from, func(s sample, t time.Duration) int { return int(s.end - t) })
	hi, _ := slices.BinarySearchFunc(r.samples, r.to, func(s sample, t time.Duration) int { return int(s.end - t) })
	return r.samples[lo:hi]
}

// qps is query points answered per second over the measured interval.
func (r *phaseResult) qps() float64 {
	points := 0
	for _, s := range r.measured() {
		points += s.points
	}
	return float64(points) / (r.to - r.from).Seconds()
}

// windowStats cuts the measured interval into equal windows and reduces
// them: qps is the median of the per-window rates, query_p50_ms and
// query_p99_ms the medians of the per-window percentiles.
func (r *phaseResult) windowStats(metrics map[string]float64, samples map[string]int) error {
	ms := r.measured()
	width := (r.to - r.from) / windows
	lat := make([][]float64, windows)
	points := make([]float64, windows)
	for _, s := range ms {
		w := min(int((s.end-r.from)/width), windows-1)
		lat[w] = append(lat[w], float64(s.lat)/float64(time.Millisecond))
		points[w] += float64(s.points)
	}
	totalPoints := 0.0
	for w := range points {
		if len(lat[w]) == 0 {
			return fmt.Errorf("measured window %d of %d completed no request", w+1, windows)
		}
		totalPoints += points[w]
		points[w] /= width.Seconds()
	}
	metrics["qps"] = median(points)
	samples["qps"] = len(ms)
	r.windowQPS = points
	metrics["query_p50_ms"], samples["query_p50_ms"] = windowPercentile(lat, 0.50)
	metrics["query_p99_ms"], samples["query_p99_ms"] = windowPercentile(lat, 0.99)
	metrics["cpu_ms_per_query"] = 1000 * r.serverCPU / totalPoints
	return nil
}

// untracedRun is the end-to-end measurement: warm-up, then the measured
// windows, tracing off.
func (e *engine[P]) untracedRun(dep *deployment) error {
	measure := time.Duration(e.o.seconds * float64(time.Second))
	var mut *mutator[P]
	if e.w.ReadWrite {
		mut = newMutator(e, dep, false)
	}
	res, err := e.closedLoop(dep, phase{url: dep.router.url, warm: warmup(measure), measure: measure, pids: dep.cl.pids()}, mut)
	if err != nil {
		return err
	}
	if err := res.windowStats(e.metrics, e.samples); err != nil {
		return err
	}
	e.progress("query points/s per window: %.1f", res.windowQPS)
	if mut != nil {
		mut.report(res, e.metrics, e.samples)
		e.verifyReadWrite(res.checks, mut)
	}
	rss, err := peakRSSMB(dep.cl.pids())
	if err != nil {
		return err
	}
	e.metrics["server_rss_mb"] = rss
	return nil
}
