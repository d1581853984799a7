package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	hybridlsh "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/shard"
)

// maxProbeOverride caps the per-request "probes" field: probe-key
// generation is O(T) heap work per table, so an unbounded override
// would hand clients a cheap way to burn server CPU.
const maxProbeOverride = 1024

// store is the point-type-independent slice of *shard.Sharded[P] — it
// satisfies this directly, so topology, compaction and the cost model
// need no per-method forwarding through the typed engine.
type store interface {
	Delete(ids []int32) int
	Compact(shardIdx int) (int, error)
	CompactAll() (int, error)
	SetAutoCompact(threshold float64)
	SyncJournal() error
	Stats() shard.Stats
	Defaults() core.QueryOpts
	Cost() core.CostModel
	SetCost(c core.CostModel) error
}

// backend is what stays behind the JSON boundary because it touches the
// point type P: parsing, querying, snapshots and the delta journal.
// probes carries a request's optional probe override (nil = the built T)
// and radius its optional covering-radius narrowing; a field the store's
// mode does not support is rejected.
type backend interface {
	// store is the serving index; on a tailing follower it moves with
	// every re-hydration, so callers fetch it per use.
	store() store
	query(raw json.RawMessage, probes, radius *int) (*QueryResult, error)
	batch(raw []json.RawMessage, workers int, probes, radius *int) ([]*QueryResult, error)
	appendPoints(raw []json.RawMessage) ([]int32, error)
	// streamSnapshot streams the index snapshot to w. POST /snapshot and
	// the replication source's GET /snapshot share it, so a replica
	// hydrated over HTTP decodes exactly what a warm restart reads.
	streamSnapshot(w io.Writer) (int64, error)
	// installJournal records every Append/Delete/Compact from here on as
	// one hybridlsh-delta/v1 frame in commit order.
	installJournal(l *replica.Log)
	// replayDelta applies recovered WAL frames onto the store, returning
	// how many applied before any error; auto-compaction must be off.
	replayDelta(hdr persist.DeltaHeader, frames [][]byte) (int, error)
	// releaseFollower detaches the follower's converged store for
	// promotion and pins it as the serving index.
	releaseFollower() error
	enableCache(entries int) error
}

// follower is the type-erased slice of *replica.Follower[P] the role
// needs: the tail loop, the status endpoint and the /stats counters.
type follower interface {
	Run(ctx context.Context, interval time.Duration)
	ServeStatus(w http.ResponseWriter, r *http.Request)
	Cursor() (epoch, seq uint64)
	Rehydrates() int64
	Applied() int64
}

// boot brings up the index cfg describes — hydrated from a writer
// (-hydrate URL; f is then the follower to tail), pinned to a snapshot
// file (-hydrate path), warm-started from -snapshot when that file
// exists, or built from the synthetic seed dataset — and reports where it
// was loaded from, if anywhere. A decoded snapshot is authoritative for
// the geometry and serving mode (see Config.adopt). This is the only
// place the metric name picks a point type.
func boot(cfg *Config) (be backend, f follower, loadedFrom string, err error) {
	switch cfg.Metric {
	case "l2":
		return denseKind.boot(cfg)
	case "hamming":
		return binaryKind.boot(cfg)
	}
	return nil, nil, "", errUnknownMetric(cfg.Metric)
}

func errUnknownMetric(metric string) error {
	return fmt.Errorf("unknown metric %q (want l2 or hamming)", metric)
}

// pointKind binds one -metric to its point type: the persist metric
// identifier, the exact cache-key encoding, the JSON point parser and
// the synthetic index builder.
type pointKind[P any] struct {
	metric string
	key    func(P) string // exact query encoding for -cache (see shard.EnableCache)
	parse  func(raw json.RawMessage, dim int) (P, error)
	build  func(cfg *Config) (*shard.Sharded[P], error)
}

var (
	denseKind  = pointKind[hybridlsh.Dense]{persist.MetricL2, hybridlsh.Dense.CacheKey, parseDense, buildDense}
	binaryKind = pointKind[hybridlsh.Binary]{persist.MetricHamming, hybridlsh.Binary.CacheKey, parseBinary, buildBinary}
)

func (k pointKind[P]) boot(cfg *Config) (backend, follower, string, error) {
	e := &engine[P]{pointKind: k}
	if cfg.followsURL() {
		// Hydrate synchronously and fail fast: a replica that cannot reach
		// its source should not take traffic. The store stays inside the
		// follower (e.fixed nil), which swaps it on every re-hydration.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		e.follower = replica.NewFollower[P](cfg.Hydrate, cfg.Client, k.metric)
		err := e.follower.Hydrate(ctx)
		if err == nil {
			err = cfg.adopt(e.follower.Meta())
		}
		if err != nil {
			return nil, nil, "", fmt.Errorf("hydrate %s: %w", cfg.Hydrate, err)
		}
		e.dim = cfg.Dim
		return e, e.follower, cfg.Hydrate, nil
	}
	path := cfg.Snapshot
	if cfg.Hydrate != "" {
		path = cfg.Hydrate
	}
	sh, err := k.read(cfg, path)
	switch {
	case err != nil:
		return nil, nil, "", err
	case sh != nil:
	case cfg.Hydrate != "":
		// Unlike -snapshot, a static replica's file is the entire dataset,
		// so a missing file is an error rather than a synthetic-build
		// fallback.
		return nil, nil, "", fmt.Errorf("hydrate: snapshot %s does not exist", path)
	default:
		path = ""
		if sh, err = k.build(cfg); err != nil {
			return nil, nil, "", err
		}
	}
	e.dim = cfg.Dim
	e.fixed.Store(sh)
	return e, nil, path, nil
}

// read decodes the snapshot at path when one is named and the file
// exists, returning (nil, nil) otherwise. The -metric flag must match the
// file — the reader rejects a snapshot of a different metric.
func (k pointKind[P]) read(cfg *Config, path string) (*shard.Sharded[P], error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sh, m, err := persist.ReadSharded[P](bufio.NewReaderSize(f, 1<<20), k.metric)
	if err == nil {
		err = cfg.adopt(m)
	}
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return sh, nil
}

func parseDense(raw json.RawMessage, dim int) (hybridlsh.Dense, error) {
	var vals []float64
	if err := json.Unmarshal(raw, &vals); err != nil {
		return nil, fmt.Errorf("point must be a number array: %w", err)
	}
	if len(vals) != dim {
		return nil, fmt.Errorf("point has %d dims, index expects %d", len(vals), dim)
	}
	p := make(hybridlsh.Dense, dim)
	for i, v := range vals {
		p[i] = float32(v)
	}
	return p, nil
}

func parseBinary(raw json.RawMessage, dim int) (hybridlsh.Binary, error) {
	var bits []int
	if err := json.Unmarshal(raw, &bits); err != nil {
		return hybridlsh.Binary{}, fmt.Errorf("point must be a 0/1 array: %w", err)
	}
	if len(bits) != dim {
		return hybridlsh.Binary{}, fmt.Errorf("point has %d bits, index expects %d", len(bits), dim)
	}
	b := hybridlsh.NewBinaryVector(dim)
	for i, v := range bits {
		switch v {
		case 0:
		case 1:
			b.SetBit(i, true)
		default:
			return hybridlsh.Binary{}, fmt.Errorf("bit %d is %d, want 0 or 1", i, v)
		}
	}
	return b, nil
}

// QueryResult is the wire form of one answered query. Probes is set
// only on multi-probe backends (the effective T the query used) and
// Radius only on covering backends (the effective reporting radius);
// override records whether the request supplied its own T or radius.
type QueryResult struct {
	IDs          []int32         `json:"ids"`
	LSHShards    int             `json:"lsh_shards"`
	LinearShards int             `json:"linear_shards"`
	Collisions   int             `json:"collisions"`
	Candidates   int             `json:"candidates"`
	WallUS       float64         `json:"wall_us"`
	Cached       bool            `json:"cached,omitempty"`
	Probes       *int            `json:"probes,omitempty"`
	Radius       *int            `json:"radius,omitempty"`
	Trace        *obs.QueryTrace `json:"trace,omitempty"`
	override     bool
	stats        shard.QueryStats // full per-shard stats, for metrics and traces
}

// engine adapts one concrete Sharded[P] to the JSON backend interface.
// The serving mode is not engine state: it is what the store's Defaults
// say (multi-probe with its T, covering with its radius, or classic).
type engine[P any] struct {
	// fixed is the serving index of writers and static replicas, and of
	// an ex-follower once promotion released and pinned its store. While
	// it is nil the store lives inside follower, which swaps it
	// atomically on every re-hydration.
	fixed        atomic.Pointer[shard.Sharded[P]]
	follower     *replica.Follower[P]
	pointKind[P]     // the metric's persist identifier, cache key and parser
	dim          int // what parse checks every request point against
}

func (e *engine[P]) sharded() *shard.Sharded[P] {
	if p := e.fixed.Load(); p != nil {
		return p
	}
	return e.follower.Store()
}

func (e *engine[P]) store() store { return e.sharded() }

// resolve maps a request's optional "probes" and "radius" fields to the
// query options for a store serving mode: an absent field keeps the
// built value; probes are validated and clamped to maxProbeOverride;
// a radius must lie in [0, built radius] — larger values are rejected,
// never clamped, because the covering tables only guarantee pairs within
// the built radius. A field the mode does not support is rejected rather
// than silently ignored.
func resolve(mode core.QueryOpts, probes, radius *int) (core.QueryOpts, error) {
	var o core.QueryOpts
	if probes != nil {
		switch {
		case !mode.Probes.Set:
			return o, errors.New(`"probes" is only supported when the server runs a multi-probe index (start with -probes)`)
		case *probes < 0:
			return o, fmt.Errorf("probes = %d, want >= 0", *probes)
		}
		o.Probes = core.Some(min(*probes, maxProbeOverride))
	}
	if radius != nil {
		switch {
		case !mode.Radius.Set:
			return o, errors.New(`"radius" is only supported when the server runs a covering index (start with -radius)`)
		case *radius < 0:
			return o, fmt.Errorf("radius = %d, want >= 0", *radius)
		case *radius > mode.Radius.N:
			return o, fmt.Errorf("radius = %d exceeds the built covering radius %d (the no-false-negatives guarantee stops there)", *radius, mode.Radius.N)
		}
		o.Radius = core.Some(*radius)
	}
	return o, nil
}

// toResult renders one answer given under the options o by a store
// serving mode: multi-probe answers carry the effective T, covering ones
// the effective radius.
func toResult(ids []int32, st shard.QueryStats, mode, o core.QueryOpts) *QueryResult {
	if ids == nil {
		ids = []int32{} // marshal as [] rather than null
	}
	res := &QueryResult{
		IDs:          ids,
		LSHShards:    st.LSHShards,
		LinearShards: st.LinearShards,
		Collisions:   st.Collisions,
		Candidates:   st.Candidates,
		WallUS:       float64(st.WallTime.Microseconds()),
		Cached:       st.CacheHit,
		stats:        st,
	}
	switch {
	case mode.Radius.Set:
		r := o.Radius.Or(mode.Radius.N)
		res.Radius, res.override = &r, o.Radius.Set
	case mode.Probes.Set:
		t := o.Probes.Or(mode.Probes.N)
		res.Probes, res.override = &t, o.Probes.Set
	}
	return res
}

func (e *engine[P]) query(raw json.RawMessage, probes, radius *int) (*QueryResult, error) {
	sh := e.sharded()
	mode := sh.Defaults()
	o, err := resolve(mode, probes, radius)
	if err != nil {
		return nil, err
	}
	p, err := e.parse(raw, e.dim)
	if err != nil {
		return nil, err
	}
	ids, st, err := sh.QueryWith(p, o)
	if err != nil {
		return nil, err
	}
	return toResult(ids, st, mode, o), nil
}

func (e *engine[P]) parseAll(raw []json.RawMessage) ([]P, error) {
	pts := make([]P, len(raw))
	for i, r := range raw {
		p, err := e.parse(r, e.dim)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = p
	}
	return pts, nil
}

func (e *engine[P]) batch(raw []json.RawMessage, workers int, probes, radius *int) ([]*QueryResult, error) {
	sh := e.sharded()
	mode := sh.Defaults()
	o, err := resolve(mode, probes, radius)
	if err != nil {
		return nil, err
	}
	pts, err := e.parseAll(raw)
	if err != nil {
		return nil, err
	}
	// Clamp client-controlled parallelism to the shard-aware ceiling the
	// workers=0 default uses, so one request can't oversubscribe the
	// machine.
	workers = max(0, min(workers, sh.DefaultBatchWorkers()))
	results, err := sh.QueryBatchWith(pts, workers, o)
	if err != nil {
		return nil, err
	}
	out := make([]*QueryResult, len(results))
	for i, r := range results {
		out[i] = toResult(r.IDs, r.Stats, mode, o)
	}
	return out, nil
}

func (e *engine[P]) appendPoints(raw []json.RawMessage) ([]int32, error) {
	pts, err := e.parseAll(raw)
	if err != nil {
		return nil, err
	}
	return e.sharded().Append(pts)
}

func (e *engine[P]) streamSnapshot(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	n, err := persist.WriteSharded(bw, e.metric, e.sharded())
	if err == nil {
		err = bw.Flush()
	}
	return n, err
}

func (e *engine[P]) installJournal(l *replica.Log) {
	e.sharded().SetJournal(replica.NewRecorder[P](l))
}

func (e *engine[P]) replayDelta(hdr persist.DeltaHeader, frames [][]byte) (int, error) {
	return replica.ReplayRaw(e.sharded(), hdr, frames)
}

func (e *engine[P]) releaseFollower() error {
	if e.follower == nil {
		return errors.New("not a tailing follower")
	}
	sh, _, _, err := e.follower.Release()
	if err != nil {
		return err
	}
	e.fixed.Store(sh)
	return nil
}

// enableCache installs the result cache; called during boot, before the
// listener starts taking traffic.
func (e *engine[P]) enableCache(entries int) error {
	return e.sharded().EnableCache(entries, e.key)
}

// synthOpts are the root-API options every synthetic build shares.
func synthOpts(cfg *Config) []hybridlsh.Option {
	quant, _ := hybridlsh.ParseQuantMode(cfg.Quant) // Validate vetted it
	opts := []hybridlsh.Option{hybridlsh.WithSeed(cfg.Seed), hybridlsh.WithShards(cfg.Shards), hybridlsh.WithQuant(quant)}
	if cfg.Tables > 0 {
		opts = append(opts, hybridlsh.WithTables(cfg.Tables))
	}
	return opts
}

func buildDense(cfg *Config) (*shard.Sharded[hybridlsh.Dense], error) {
	points := seedDense(cfg.N, cfg.Dim, cfg.Seed)
	if cfg.Probes > 0 {
		ix, err := hybridlsh.NewShardedMultiProbeL2Index(points, cfg.Radius,
			append(synthOpts(cfg), hybridlsh.WithProbes(cfg.Probes))...)
		if err != nil {
			return nil, err
		}
		return ix.Sharded, nil
	}
	ix, err := hybridlsh.NewShardedL2Index(points, cfg.Radius, synthOpts(cfg)...)
	if err != nil {
		return nil, err
	}
	return ix.Sharded, nil
}

func buildBinary(cfg *Config) (*shard.Sharded[hybridlsh.Binary], error) {
	points := seedBinary(cfg.N, cfg.Dim, cfg.Seed)
	if cfg.CoverRadius > 0 {
		// Covering mode ignores -tables: the table count is forced to
		// 2^(r+1)−1 by the radius.
		ix, err := hybridlsh.NewShardedCoveringHammingIndex(points,
			hybridlsh.WithRadius(cfg.CoverRadius), hybridlsh.WithSeed(cfg.Seed), hybridlsh.WithShards(cfg.Shards))
		if err != nil {
			return nil, err
		}
		return ix.Sharded, nil
	}
	ix, err := hybridlsh.NewShardedHammingIndex(points, cfg.Radius, synthOpts(cfg)...)
	if err != nil {
		return nil, err
	}
	return ix.Sharded, nil
}

// seedDense generates n clustered points in [0,1)^dim (64 Gaussian
// clusters, σ = 0.02) so fresh servers answer non-trivial queries. The
// clusters are tight relative to typical inter-cluster distances, so a
// radius between the two scales yields clean, high-recall answers.
func seedDense(n, dim int, seed uint64) []hybridlsh.Dense {
	r := rng.New(seed)
	nc := min(64, n)
	centers := make([]hybridlsh.Dense, nc)
	for i := range centers {
		c := make(hybridlsh.Dense, dim)
		for d := range c {
			c[d] = float32(r.Float64())
		}
		centers[i] = c
	}
	points := make([]hybridlsh.Dense, n)
	for i := range points {
		c := centers[i%nc]
		p := make(hybridlsh.Dense, dim)
		for d := range p {
			p[d] = c[d] + float32(r.Normal()*0.02)
		}
		points[i] = p
	}
	return points
}

// seedBinary generates n points as 64 random prototype codes with up to
// dim/16 bits flipped each.
func seedBinary(n, dim int, seed uint64) []hybridlsh.Binary {
	r := rng.New(seed)
	nc := min(64, n)
	protos := make([]hybridlsh.Binary, nc)
	for i := range protos {
		b := hybridlsh.NewBinaryVector(dim)
		for j := 0; j < dim; j++ {
			if r.Float64() < 0.5 {
				b.SetBit(j, true)
			}
		}
		protos[i] = b
	}
	flips := max(1, dim/16)
	points := make([]hybridlsh.Binary, n)
	for i := range points {
		b := protos[i%nc].Clone()
		for f := 0; f < flips; f++ {
			b.FlipBit(r.Intn(dim))
		}
		points[i] = b
	}
	return points
}
