package hybridlsh

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/covering"
	"repro/internal/persist"
	"repro/internal/shard"
)

// Index is a hybrid index under one metric, in the serving mode it was
// built or loaded in: classic, multi-probe (WithProbes) or covering
// (WithCovering); Defaults reports which. Its promoted methods are the
// whole query surface — Query and QueryWith, the forced paths QueryLSH,
// QueryLinear and DecideStrategy (and their ...With variants), QueryBatch
// and Append. It is safe for concurrent queries but single-writer:
// Append must not overlap queries. Use Sharded for serving workloads
// that mutate under traffic.
type Index[P any] struct {
	*core.Index[P]
	// store is the mode's store: the embedded index itself, or the
	// covering.Index around it, which also carries φ.
	store  core.Store[P]
	metric string
}

// wrap makes an Index of a built or decoded store.
func wrap[P any](metric string, st core.Store[P]) *Index[P] {
	ix, ok := st.(*core.Index[P])
	if !ok { // a covering index: the hybrid index inside it
		ix = any(any(st).(*covering.Index).Index).(*core.Index[P])
	}
	return &Index[P]{Index: ix, store: st, metric: metric}
}

// Sharded partitions an index across S shards (WithShards, default 4)
// and answers queries by parallel fan-out. Unlike Index it is safe for
// concurrent mutation: Append write-locks a single shard while the
// others keep serving, and Delete tombstones ids without touching the
// tables. On the same point slice it shares Index's id universe (point i
// keeps id i); reported sets agree up to the per-point δ failure
// probability, since every shard draws its own hash functions from the
// WithSeed seed — which is also why a one-shard Sharded does not
// reproduce an Index's answers.
//
// Deleted points are compacted out of a shard's buckets — keeping the
// drawn hash functions, rebuilding the sketches from live ids —
// automatically once the shard's tombstone ratio crosses
// WithCompactionThreshold (default 20%), or on demand via the promoted
// Compact/CompactAll methods, so the hybrid strategy decision never
// drifts under delete-heavy traffic.
type Sharded[P any] struct {
	*shard.Sharded[P]
	metric string
}

// ShardedQueryStats aggregates the per-shard outcomes of one fanned-out
// query: strategy mix, summed collision/candidate counts and the
// critical-path vs total shard time.
type ShardedQueryStats = shard.QueryStats

// ShardedBatchResult is one query's outcome within a sharded QueryBatch.
type ShardedBatchResult = shard.BatchResult

// ShardStats is a point-in-time topology snapshot of a sharded index
// (shard sizes, live points, tombstones).
type ShardStats = shard.Stats

// New builds a hybrid index under m over points for radius r. The
// defaults are the paper's setting (δ = 0.1, L = 50 tables, 128 HLL
// registers, and the metric's k and slot width); the options override
// them and select the serving mode:
//
//   - WithProbes(t) builds a multi-probe index (L2 only): t extra buckets
//     probed per table, and L = 10 tables unless WithTables says
//     otherwise.
//   - WithCovering() builds a covering index (Hamming only): no false
//     negatives within the integer radius r ∈ [1, 12], at 2^(r+1) − 1
//     tables. WithTables, WithK and WithDelta do not apply.
//
// A mode the metric does not serve is an error wrapping
// ErrUnsupportedOption. Points must be non-empty and share one non-zero
// dimension.
func New[P any](m Metric[P], points []P, r float64, opts ...Option) (*Index[P], error) {
	o, dim, err := m.resolve(points, r, opts)
	if err != nil {
		return nil, err
	}
	st, err := m.build(points, dim, r, o)
	if err != nil {
		return nil, err
	}
	return wrap(m.name, st), nil
}

// NewSharded builds a sharded hybrid index under m for radius r. The
// shard count comes from WithShards (default 4, clamped to len(points));
// every other option applies as in New, except that each shard draws its
// own hash functions from the WithSeed seed. WithCompactionThreshold and
// WithCache configure the sharded structure.
func NewSharded[P any](m Metric[P], points []P, r float64, opts ...Option) (*Sharded[P], error) {
	o, dim, err := m.resolve(points, r, opts)
	if err != nil {
		return nil, err
	}
	if o.cacheSize != 0 && m.key == nil {
		return nil, fmt.Errorf("hybridlsh: %w: WithCache on %s points", ErrUnsupportedOption, m.name)
	}
	s, err := shard.New(points, o.shardCount(), o.seed, func(pts []P, seed uint64) (core.Store[P], error) {
		so := o
		so.seed = seed
		return m.build(pts, dim, r, so)
	})
	if err != nil {
		return nil, err
	}
	if o.compactThresh != 0 {
		s.SetAutoCompact(o.compactThresh)
	}
	if o.cacheSize != 0 {
		if err := s.EnableCache(o.cacheSize, m.key); err != nil {
			return nil, err
		}
	}
	return &Sharded[P]{s, m.name}, nil
}

// resolve checks a build request against the metric — points, radius and
// the serving mode the options select — and returns the options and the
// points' dimension.
func (m Metric[P]) resolve(points []P, r float64, opts []Option) (options, int, error) {
	o := applyOptions(opts)
	if len(points) == 0 {
		return o, 0, fmt.Errorf("hybridlsh: %s index on empty point set", m.name)
	}
	if !(r > 0) {
		return o, 0, fmt.Errorf("hybridlsh: %s radius = %v, want > 0", m.name, r)
	}
	if o.probes > 0 && !m.probes {
		return o, 0, fmt.Errorf("hybridlsh: %w: WithProbes on metric %s (multi-probe is L2 only)", ErrUnsupportedOption, m.name)
	}
	if o.covering {
		if !m.cover {
			return o, 0, fmt.Errorf("hybridlsh: %w: WithCovering on metric %s (covering is Hamming only)", ErrUnsupportedOption, m.name)
		}
		if r != math.Trunc(r) || r > covering.MaxRadius {
			return o, 0, fmt.Errorf("hybridlsh: covering radius = %v, want an integer in [1, %d]", r, covering.MaxRadius)
		}
	}
	dim, err := core.PointsDim(points)
	return o, dim, err
}

// build builds one index over points in the mode o selects; New builds
// the whole index with it, NewSharded every shard under its own seed.
func (m Metric[P]) build(points []P, dim int, r float64, o options) (core.Store[P], error) {
	if o.covering {
		ix, err := covering.New(any(points).([]Binary), int(r), covering.Config{
			HLLRegisters: o.hllRegs,
			HLLThreshold: o.hllThresh,
			Cost:         o.cost,
			Seed:         o.seed,
		})
		if err != nil {
			return nil, err
		}
		return any(ix).(core.Store[P]), nil
	}
	w := o.slotWidth
	if w == 0 {
		w = m.w * r
	}
	k, l := o.k, o.tables
	if k == 0 {
		k = m.k
	}
	if l == 0 && o.probes > 0 {
		l = 10 // multi-probe's point: far fewer than the classic 50 tables
	}
	return core.NewIndex(points, core.Config[P]{
		Family:       m.family(dim, w, o.seed),
		Distance:     m.dist,
		Radius:       r,
		Delta:        o.delta,
		K:            k,
		L:            l,
		Probes:       o.probes,
		HLLRegisters: o.hllRegs,
		HLLThreshold: o.hllThresh,
		Cost:         o.cost,
		Seed:         o.seed,
		Store:        m.builder(o.quant),
	})
}

// Compact returns a new index without the points marked dead (len(dead)
// must equal N): the drawn hash functions — and a covering index's φ —
// are kept, survivors are renumbered by rank and the sketches rebuilt
// from them (see core.Index.Compact). The receiver stays usable.
func (ix *Index[P]) Compact(dead []bool) (*Index[P], error) {
	st, err := ix.store.CompactStore(dead)
	if err != nil {
		return nil, err
	}
	return wrap(ix.metric, st), nil
}

// SnapshotFormat names the snapshot wire format the WriteTo methods
// produce. Readers accept exactly this version; incompatible layout
// changes bump it.
const SnapshotFormat = persist.FormatName

// WriteTo writes a snapshot of the index in the versioned
// hybridlsh-snap/v1 format (see docs/SNAPSHOT_FORMAT.md); it implements
// io.WriterTo. Points, configuration, every drawn hash function, all
// bucket tables, the per-bucket sketches and the cost model are saved,
// and so is the mode: a multi-probe index's T, a covering index's radius
// and φ. Open reloads it without re-hashing a point, and the loaded
// index answers id-for-id as this one does. The index must not be
// appended to concurrently.
func (ix *Index[P]) WriteTo(w io.Writer) (int64, error) {
	return persist.Write(w, ix.metric, ix.store)
}

// WriteTo writes a snapshot of the sharded index, every shard's own hash
// functions included; it implements io.WriterTo. It takes a consistent
// view (appends block for the duration, queries keep flowing) and
// compacts tombstoned points out of the snapshot while keeping their ids
// reserved, so deleted ids stay deleted and are never reused after
// OpenSharded, and Append continues from the saved high-water mark.
// Compaction can flip a borderline query's strategy, so after deletes
// the loaded index agrees up to the per-point δ; with none it answers
// id-for-id as this one does.
func (s *Sharded[P]) WriteTo(w io.Writer) (int64, error) {
	return persist.WriteSharded(w, s.metric, s.Sharded)
}

// Open loads an index snapshot of metric m written by Index.WriteTo, in
// whichever serving mode the file holds (Defaults reports it). It
// rejects a snapshot of another metric, a sharded one, and corrupt,
// truncated or adversarial input with an error rather than a panic.
func Open[P any](m Metric[P], r io.Reader) (*Index[P], error) {
	st, _, err := persist.Read[P](r, m.name)
	if err != nil {
		return nil, err
	}
	return wrap(m.name, st), nil
}

// OpenSharded is Open for snapshots written by Sharded.WriteTo.
func OpenSharded[P any](m Metric[P], r io.Reader) (*Sharded[P], error) {
	sh, _, err := persist.ReadSharded[P](r, m.name)
	if err != nil {
		return nil, err
	}
	return &Sharded[P]{sh, m.name}, nil
}
