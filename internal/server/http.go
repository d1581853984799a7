package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Server wires a backend to the HTTP API plus serving telemetry.
type Server struct {
	cfg        Config // as adopted from the snapshot or source at boot
	be         backend
	loadedFrom string // snapshot path or source URL the index booted from, if any
	// role is swapped whole by POST /promote; promoteMu serializes the
	// swappers (promotion and Shutdown), never the handlers reading it.
	role      atomic.Pointer[role]
	promoteMu sync.Mutex
	lat       *stats.Recorder // per-query wall latency, microseconds
	start     time.Time
	// Mode counters (zero on classic backends): queries answered in the
	// serving mode — through the probe path, or with the covering
	// guarantee — how many of them carried a per-request override, and on
	// multi-probe backends the summed T they used.
	modeQueries   atomic.Int64
	modeOverrides atomic.Int64
	probesUsed    atomic.Int64
	// reg is the /metrics registry, metrics the query-path bundle
	// (query and strategy counters, latency histograms, drift monitor)
	// every answered query is folded into; /stats reads the same counters.
	// sampled counts answered queries for the -trace-sample access log,
	// recalTick paces the piggybacked auto-recalibration check.
	reg       *obs.Registry
	metrics   *obs.ServerMetrics
	sampled   atomic.Int64
	recalTick atomic.Int64
	// writeNanos and writeBytes describe the latest snapshot the node
	// wrote (writeSnapshot).
	writeNanos, writeBytes atomic.Int64
}

// New validates cfg and boots the node it describes: the index is loaded
// from -snapshot, hydrated from -hydrate (synchronously) or built from
// the synthetic seed dataset, and the replication role is brought up.
// The caller serves Handler and calls Shutdown when done.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, lat: stats.NewRecorder(cfg.Window), start: time.Now(), reg: obs.NewRegistry()}
	s.metrics = obs.NewServerMetrics(s.reg, cfg.Window)
	ro := &role{readOnly: cfg.Hydrate != ""}
	var err error
	if s.be, ro.follower, s.loadedFrom, err = boot(&s.cfg); err != nil {
		return nil, err
	}
	if !ro.readOnly {
		if ro, err = s.becomeWriter(nil); err != nil {
			return nil, err
		}
	}
	if cfg.CacheSize > 0 {
		// Every boot path passes through here, so a warm restart keeps its
		// cache too.
		if err := s.be.enableCache(cfg.CacheSize); err != nil {
			return nil, err
		}
	}
	if ro.follower != nil {
		ro.stopTail = startTail(ro.follower)
	}
	s.role.Store(ro)
	s.registerMetrics()
	switch {
	case ro.readOnly:
		log.Printf("hybridserve: read-only replica hydrated from %s (%d live points)", s.loadedFrom, s.topo().Live)
	case s.loadedFrom != "":
		log.Printf("hybridserve: warm start from %s (%d live points)", s.loadedFrom, s.topo().Live)
	}
	return s, nil
}

func (s *Server) topo() shard.Stats { return s.be.store().Stats() }

// reportRadius is the effective reporting radius: the float the classic
// and multi-probe indexes were built for, or the integer covering radius
// in covering mode (where the -r flag plays no role). /stats reports
// this next to the mode-specific cover_radius rather than overwriting
// one with the other.
func (s *Server) reportRadius() float64 {
	if s.cfg.CoverRadius > 0 {
		return float64(s.cfg.CoverRadius)
	}
	return s.cfg.Radius
}

// String describes the served index for the boot log.
func (s *Server) String() string {
	mode := ""
	if s.cfg.Probes > 0 {
		mode = fmt.Sprintf(" multi-probe T=%d", s.cfg.Probes)
	}
	if s.cfg.CoverRadius > 0 {
		mode = fmt.Sprintf(" covering r=%d", s.cfg.CoverRadius)
	}
	return fmt.Sprintf("%s%s index, n=%d dim=%d r=%v shards=%d",
		s.cfg.Metric, mode, s.topo().Live, s.cfg.Dim, s.reportRadius(), s.cfg.Shards)
}

// Shutdown ends the node after the request drain: it flushes the final
// metrics line, stops a follower's tail loop, then syncs and closes the
// WAL so a clean exit never leaves an unflushed tail (crash recovery
// handles the unclean one).
func (s *Server) Shutdown() {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	s.logFinalMetrics()
	ro := s.role.Load()
	if ro.stopTail != nil {
		ro.stopTail()
	}
	if ro.wal != nil {
		if err := s.be.store().SyncJournal(); err != nil {
			log.Printf("hybridserve: wal sync on shutdown: %v", err)
		}
		if err := ro.wal.Close(); err != nil {
			log.Printf("hybridserve: wal close: %v", err)
		}
	}
}

// Handler returns the node's HTTP API (see cmd/hybridserve's package
// comment for the endpoint reference).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /append", s.mutating(s.handleAppend))
	mux.HandleFunc("POST /delete", s.mutating(s.handleDelete))
	mux.HandleFunc("POST /compact", s.mutating(s.handleCompact))
	mux.HandleFunc("POST /recalibrate", s.mutating(s.handleRecalibrate))
	mux.HandleFunc("POST /snapshot", s.mutating(s.handleSnapshot))
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("GET /snapshot", s.feed((*replica.Source).ServeSnapshot))
	mux.HandleFunc("GET /delta", s.feed((*replica.Source).ServeDelta))
	mux.HandleFunc("GET /replica/status", s.handleReplStatus)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg)
	// MaxBytesHandler wraps every request body in http.MaxBytesReader, so
	// a client cannot stream an unbounded body into the node; readBody
	// reads each body whole, so any body over the cap is a 413 via
	// statusFor, even when its first JSON value ends inside the cap.
	return http.MaxBytesHandler(mux, s.cfg.MaxBody)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("hybridserve: encoding response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// readBody reads r's body whole into a pooled buffer sized from its
// Content-Length. The caller Puts the buffer once nothing decoded from
// it aliases the bytes.
func (s *Server) readBody(r *http.Request) (*bufpool.Buf, error) {
	buf := bufpool.Get()
	var err error
	if buf.B, err = bufpool.ReadBody(buf.B, r.Body, r.ContentLength, s.cfg.MaxBody); err != nil {
		bufpool.Put(buf)
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return buf, nil
}

// decode reads r's body and decodes it into v with decodeJSON.
func (s *Server) decode(r *http.Request, v any) error {
	buf, err := s.readBody(r)
	if err != nil {
		return err
	}
	defer bufpool.Put(buf)
	return decodeJSON(buf.B, v)
}

// decodeJSON decodes the first JSON value of body into v, refusing
// unknown fields and ignoring any bytes after the value.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// statusFor maps a body error to its HTTP status: 413 when the body is
// longer than the -maxbody cap, 400 for everything else.
func statusFor(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.start).Seconds(),
	})
}

// Query answers one JSON-encoded point exactly as POST /query does once
// the request envelope is decoded; the caller folds the answer into the
// telemetry with Record (hybridbench's serve experiment times the two
// apart to price the instrumentation).
func (s *Server) Query(point json.RawMessage, probes, radius *int) (*QueryResult, error) {
	return s.be.queryRaw(point, probes, radius)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	buf, err := s.readBody(r)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	res, trace, err := s.be.query(buf.B)
	bufpool.Put(buf)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.Record(res)
	if trace {
		res.Trace = s.traceOf(res)
	}
	writeResult(w, res)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf, err := s.readBody(r)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	results, trace, err := s.be.batch(buf.B)
	bufpool.Put(buf)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, res := range results {
		s.Record(res)
		if trace {
			res.Trace = s.traceOf(res)
		}
	}
	writeResults(w, results)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	buf, err := s.readBody(r)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	ids, err := s.be.appendPoints(buf.B)
	bufpool.Put(buf)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ids": ids, "n": s.topo().Live})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs []int32 `json:"ids"`
	}
	if err := s.decode(r, &req); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	deleted := s.be.store().Delete(req.IDs)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": deleted, "n": s.topo().Live})
}

// handleCompact drops tombstoned points out of the index buckets:
// {"shard": j} compacts one shard, an empty body compacts all of them.
// Queries keep flowing while the rewrite runs; only appends routed to
// the shard being compacted wait.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Shard *int `json:"shard"`
	}
	if err := s.decode(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, statusFor(err), err)
		return
	}
	if req.Shard != nil && *req.Shard < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("shard = %d, want >= 0 (omit the field to compact all shards)", *req.Shard))
		return
	}
	t0 := time.Now()
	var removed int
	var err error
	if req.Shard != nil {
		removed, err = s.be.store().Compact(*req.Shard)
	} else {
		removed, err = s.be.store().CompactAll()
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	topo := s.topo()
	log.Printf("hybridserve: compacted %d points in %v", removed, time.Since(t0).Round(time.Millisecond))
	writeJSON(w, http.StatusOK, map[string]any{
		"removed":           removed,
		"live":              topo.Live,
		"dead_in_buckets":   topo.DeadTotal,
		"compactions_total": topo.CompactionsTotal,
		"compact_ms":        float64(time.Since(t0).Microseconds()) / 1000,
	})
}

// handleRecalibrate forces an immediate cost-model refit from the
// current drift windows, bypassing the auto policy's dead band and
// sample floor — the operator's "I know the machine changed" lever. It
// still needs evidence: both strategies must have been observed since
// the last window reset, and a refit that would produce a degenerate
// model is rejected (409) with the serving model left untouched.
// Disabled together with the auto policy by -recalibrate=off.
func (s *Server) handleRecalibrate(w http.ResponseWriter, r *http.Request) {
	rc := s.role.Load().recal
	if rc == nil {
		writeErr(w, http.StatusBadRequest, errors.New("recalibration disabled: start the server with -recalibrate=auto"))
		return
	}
	old, next, err := rc.Force()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	log.Printf("hybridserve: forced recalibration: alpha %.3f -> %.3f, beta %.3f -> %.3f", old.Alpha, next.Alpha, old.Beta, next.Beta)
	writeJSON(w, http.StatusOK, map[string]any{
		"old":          costJSON(old),
		"new":          costJSON(next),
		"refits_total": rc.Refits(),
	})
}

// costJSON renders a cost model for /stats and /recalibrate responses.
func costJSON(c core.CostModel) map[string]any {
	return map[string]any{
		"alpha_ns":        c.Alpha,
		"beta_ns":         c.Beta,
		"beta_over_alpha": c.BetaOverAlpha(),
	}
}

// handleSnapshot persists the index to the operator-configured
// -snapshot path, atomically (temp file + rename); appends are blocked
// while the consistent view is serialized, queries keep flowing. The
// path deliberately cannot come from the request: accepting one would
// hand every HTTP client an arbitrary-file-write primitive (the atomic
// rename overwrites whatever the path names).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	path := s.cfg.Snapshot
	if path == "" {
		writeErr(w, http.StatusBadRequest, errors.New("no snapshot path configured: start the server with -snapshot"))
		return
	}
	ro := s.role.Load()
	// Read the covered cursor before serializing: the snapshot sees at
	// least every mutation journaled up to here, so WAL segments whose
	// frames all fall at or below it are redundant once the write lands,
	// which is when WriteFileAtomic has synced the directory it renamed
	// the file into. On any error the WAL stays whole.
	covered := ro.log.Seq() // mutating admitted the request, so this is a writer role
	t0 := time.Now()
	n, err := persist.WriteFileAtomic(path, s.writeSnapshot)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	walRemoved := 0
	if ro.wal != nil {
		if serr := s.be.store().SyncJournal(); serr != nil {
			log.Printf("hybridserve: wal sync before truncation: %v", serr)
		} else if walRemoved, err = ro.wal.TruncateThrough(covered); err != nil {
			log.Printf("hybridserve: wal truncation: %v", err)
		}
	}
	log.Printf("hybridserve: wrote snapshot %s (%d bytes in %v)", path, n, time.Since(t0).Round(time.Millisecond))
	writeJSON(w, http.StatusOK, map[string]any{
		"path":                 path,
		"bytes":                n,
		"live":                 s.topo().Live,
		"write_ms":             float64(time.Since(t0).Microseconds()) / 1000,
		"wal_segments_removed": walRemoved,
	})
}
