package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where the benchmark lives on disk. Everything it writes is
// under root: linked binaries and run-time temp dirs in .bench_build/,
// child logs and span dumps in benchmark/out/.
type env struct {
	root   string // repository root (holds go.mod of module repro)
	binDir string
	tmpDir string
	outDir string

	mu   sync.Mutex
	tmps []string // temp dirs to remove on exit
}

func newEnv(root string) (*env, error) {
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return nil, err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		binDir: filepath.Join(root, ".bench_build", "bin"),
		tmpDir: filepath.Join(root, ".bench_build", "tmp"),
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	for _, d := range []string{e.binDir, e.tmpDir, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module repro above the working directory; pass -root")
		}
		dir = parent
	}
}

// buildBinaries links the two server binaries the benchmark drives. The
// go command's own cache makes a repeat call cheap; compile time is
// outside every metric.
func (e *env) buildBinaries(ctx context.Context) error {
	for _, name := range []string{"hybridserve", "hybridrouter"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(e.binDir, name), "./cmd/"+name)
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %w\n%s", name, err, out)
		}
	}
	return nil
}

// mkTemp makes a run-scoped temp dir that cleanup removes.
func (e *env) mkTemp(prefix string) (string, error) {
	d, err := os.MkdirTemp(e.tmpDir, prefix+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.tmps = append(e.tmps, d)
	e.mu.Unlock()
	return d, nil
}

// cleanup removes every temp dir made through mkTemp; it runs on normal
// exit, on error and after a signal.
func (e *env) cleanup() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.tmps {
		os.RemoveAll(d)
	}
	e.tmps = nil
}

// freeAddr picks a free loopback port by binding port 0.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// proc is one child process.
type proc struct {
	name    string
	url     string
	logPath string
	cmd     *exec.Cmd
	done    chan struct{} // closed once Wait returned
}

// cluster is the set of children of one deployment. Its context is
// cancelled, with the dead child's log tail as the cause, as soon as a
// child exits that was not asked to: every request the benchmark has in
// flight then fails and the workload reports that cause instead of
// partial numbers.
type cluster struct {
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	procs    []*proc
	stopping bool
}

func newCluster(parent context.Context) *cluster {
	ctx, cancel := context.WithCancelCause(parent)
	return &cluster{ctx: ctx, cancel: cancel}
}

// start launches bin with args, its output captured to logPath
// (appended, so the boots of one run share a file), and waits until it
// answers GET /healthz.
func (c *cluster) start(name, bin, addr, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	fmt.Fprintf(logf, "---- %s %s\n", filepath.Base(bin), strings.Join(args, " "))
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, logPath: logPath, cmd: cmd, done: make(chan struct{})}
	c.mu.Lock()
	c.procs = append(c.procs, p)
	c.mu.Unlock()
	go func() {
		werr := cmd.Wait()
		close(p.done)
		c.mu.Lock()
		stopping := c.stopping
		c.mu.Unlock()
		if !stopping {
			c.cancel(fmt.Errorf("%s exited mid-run (%v); log tail:\n%s", name, werr, tail(logPath, 15)))
		}
	}()
	if err := c.waitHealthy(p); err != nil {
		return nil, err
	}
	return p, nil
}

func (c *cluster) waitHealthy(p *proc) error {
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		req, _ := http.NewRequestWithContext(c.ctx, http.MethodGet, p.url+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.ctx.Done():
			return context.Cause(c.ctx)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s did not answer /healthz; log tail:\n%s", p.name, tail(p.logPath, 15))
}

// stop terminates the children in reverse start order (router before the
// servers it fronts) and waits for each: SIGTERM first, so hybridserve
// syncs and closes its WAL, SIGKILL after three seconds.
func (c *cluster) stop() {
	c.mu.Lock()
	c.stopping = true
	procs := append([]*proc(nil), c.procs...)
	c.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		p := procs[i]
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(3 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	c.cancel(errors.New("cluster stopped"))
}

// pids lists the children's process ids.
func (c *cluster) pids() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// tail returns the last n lines of a file (empty when unreadable).
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// clockTick is the kernel's USER_HZ; it has been 100 on every Linux
// architecture Go runs on.
const clockTick = 100

// cpuSeconds sums utime+stime of the given processes from
// /proc/<pid>/stat.
func cpuSeconds(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		ticks, err := parseStatTicks(string(b))
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		total += float64(ticks) / clockTick
	}
	return total, nil
}

// parseStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name in field 2 may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime/stime")
	}
	return ut + st, nil
}

// hostTicks reads the machine-wide cpu line of /proc/stat: all ticks
// accounted so far, and those of them the hypervisor gave to other guests
// while this one had work to run (steal).
func hostTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseHostTicks(line)
}

// parseHostTicks sums the first eight fields of a "cpu ..." line (user
// nice system idle iowait irq softirq steal; guest time is already in
// user) and picks out the eighth.
func parseHostTicks(line string) (total, steal int64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("no cpu line with a steal field")
	}
	for _, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		steal = n
	}
	return total, steal, nil
}

// peakRSSMB sums VmHWM of the given processes, in MB.
func peakRSSMB(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseVmHWM(string(b))
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("no VmHWM line")
}

// selfCPUSeconds is the benchmark process's own utime+stime.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
