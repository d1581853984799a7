// Package covering implements covering LSH for Hamming space (Pagh, SODA
// 2016): an LSH scheme with **no false negatives** — every point within
// radius r of the query is guaranteed (probability 1) to share at least
// one bucket with it — combined with the Hybrid-LSH paper's per-bucket
// HyperLogLog sketches and cost-based strategy choice, the second
// future-work combination Section 5 names.
//
// Construction: let b = r+1 and draw a random map φ: [d] → {0,1}^b. For
// every non-zero vector v ∈ {0,1}^b build one hash table whose key keeps
// exactly the coordinates i with ⟨φ(i), v⟩ = 1 (mod 2). If x and y differ
// on a set D of at most r coordinates, the linear system ⟨φ(i), v⟩ = 0 for
// i ∈ D has at most r equations over b = r+1 unknowns, so a non-zero
// solution v* exists — and in table v* no differing coordinate is kept,
// hence x and y collide. The price is 2^(r+1) − 1 tables, practical for
// small radii; with that many probed buckets per query, cost estimation is
// exactly what keeps hard queries from drowning in duplicate removal.
//
// Index satisfies core.Store, which is what lets shard.Sharded fan out,
// tombstone, auto-compact and snapshot covering shards with the same
// machinery as plain and multi-probe ones: Append hashes new points with
// the already-drawn φ (the guarantee is per-pair and oblivious to the data,
// so it survives growth), Compact rewrites the mask tables without the dead
// points while keeping φ, and Restore reassembles a persisted index without
// re-hashing. Its one per-query option (core.QueryOpts.Radius) is a
// radius override r' ≤ r, which narrows the report while keeping the
// guarantee, because the points within r' are a subset of the points
// within r that the tables already cover.
package covering

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/hll"
	"repro/internal/lsh"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// MaxRadius bounds the supported radius: r = 12 already means 8191 tables.
const MaxRadius = 12

// DefaultRadius is the covering radius used when a caller leaves it zero
// (7 tables — the cheap end of the 2^(r+1)−1 trade).
const DefaultRadius = 2

// Config configures a covering-LSH hybrid index.
type Config struct {
	// HLLRegisters is m (default 128).
	HLLRegisters int
	// HLLThreshold is the pre-built-sketch bucket-size threshold
	// (default: HLLRegisters, the paper's rule).
	HLLThreshold int
	// Cost is the cost model (default core.DefaultCostModel).
	Cost core.CostModel
	// Seed fixes the random map φ.
	Seed uint64
}

// withDefaults fills in the defaulted fields and validates the rest.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.HLLRegisters == 0 {
		cfg.HLLRegisters = 128
	}
	if m := cfg.HLLRegisters; m < hll.MinM || m > hll.MaxM || m&(m-1) != 0 {
		return cfg, fmt.Errorf("covering: HLLRegisters = %d, want a power of two in [%d, %d]", m, hll.MinM, hll.MaxM)
	}
	if cfg.HLLThreshold < 0 {
		return cfg, fmt.Errorf("covering: HLLThreshold = %d, want >= 0", cfg.HLLThreshold)
	}
	if cfg.HLLThreshold == 0 {
		cfg.HLLThreshold = cfg.HLLRegisters
	}
	if cfg.Cost == (core.CostModel{}) {
		cfg.Cost = core.DefaultCostModel
	}
	if !cfg.Cost.Valid() {
		return cfg, fmt.Errorf("covering: cost model %+v, want positive constants", cfg.Cost)
	}
	return cfg, nil
}

// Index is the covering-LSH structure: 2^(r+1)−1 mask tables with
// per-bucket sketches. It is safe for any number of concurrent queries,
// but — like core.Index — single-writer: Append must not run concurrently
// with queries or another Append (wrap in shard.Sharded for concurrent
// mutation).
type Index struct {
	// Searcher is Algorithm 2 over the flat binary point store; the index
	// itself contributes the bucket collection (one per mask table).
	*core.Searcher[vector.Binary]
	radius  int
	dim     int
	m       int
	thresh  int
	seed    uint64
	phi     []uint32        // φ(i) ∈ {0,1}^(r+1) per dimension
	masks   []vector.Binary // one keep-mask per table, derived from φ
	tables  []map[uint64]*lsh.Bucket
	lookups sync.Pool // *[]*lsh.Bucket, the per-query bucket-lookup scratch
}

// NumTables returns the table count 2^(r+1) − 1 a covering index of
// radius r maintains.
func NumTables(r int) int { return 1<<(r+1) - 1 }

// validRadius checks r against the dimension and the package cap.
func validRadius(r, dim int) error {
	if r < 1 || r > MaxRadius {
		return fmt.Errorf("covering: radius = %d, want in [1, %d]", r, MaxRadius)
	}
	if r >= dim {
		return fmt.Errorf("covering: radius %d >= dimension %d", r, dim)
	}
	return nil
}

// masksFromPhi derives the per-table keep-masks: table v (1-based) keeps
// coordinate i iff parity(φ(i) & v) = 1.
func masksFromPhi(phi []uint32, r int) []vector.Binary {
	dim := len(phi)
	masks := make([]vector.Binary, NumTables(r))
	for t := range masks {
		v := uint32(t + 1)
		mask := vector.NewBinary(dim)
		for i := 0; i < dim; i++ {
			if parity(phi[i]&v) == 1 {
				mask.SetBit(i, true)
			}
		}
		masks[t] = mask
	}
	return masks
}

// New builds a covering index over binary points for integer radius r.
func New(points []vector.Binary, r int, cfg Config) (*Index, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("covering: empty point set")
	}
	dim := points[0].Dim
	if err := validRadius(r, dim); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	// φ(i) ∈ {0,1}^b per dimension, drawn uniformly.
	b := uint(r + 1)
	rnd := rng.New(cfg.Seed)
	phi := make([]uint32, dim)
	for i := range phi {
		phi[i] = uint32(rnd.Uint64() & ((1 << b) - 1))
	}

	tables := make([]map[uint64]*lsh.Bucket, NumTables(r))
	for t := range tables {
		tables[t] = make(map[uint64]*lsh.Bucket)
	}
	ix := assemble(pointstore.EmptyFlatBinary(dim), r, phi, cfg.Seed, tables, cfg)
	if err := ix.Append(points); err != nil {
		return nil, err
	}
	return ix, nil
}

// assemble wires an Index over already consistent parts (cfg defaulted).
func assemble(store pointstore.Store[vector.Binary], r int, phi []uint32, seed uint64, tables []map[uint64]*lsh.Bucket, cfg Config) *Index {
	ix := &Index{
		Searcher: core.NewSearcher(store, cfg.Cost, cfg.HLLRegisters),
		radius:   r,
		dim:      len(phi),
		m:        cfg.HLLRegisters,
		thresh:   cfg.HLLThreshold,
		seed:     seed,
		phi:      phi,
		masks:    masksFromPhi(phi, r),
		tables:   tables,
	}
	ix.lookups.New = func() any { return new([]*lsh.Bucket) }
	return ix
}

// Restore reassembles an Index from decoded snapshot state without
// re-hashing: the bucket tables are used as-is, so the restored index
// answers queries id-for-id identically to the saved one. Unlike New it
// accepts an empty point set (a fully compacted shard); r and φ must be
// consistent with each other and the tables.
func Restore(points []vector.Binary, r int, phi []uint32, seed uint64, tables []map[uint64]*lsh.Bucket, cfg Config) (*Index, error) {
	dim := len(phi)
	if err := validRadius(r, dim); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(tables) != NumTables(r) {
		return nil, fmt.Errorf("covering: Restore with %d tables for radius %d, want %d", len(tables), r, NumTables(r))
	}
	b := uint(r + 1)
	for i, v := range phi {
		if v >= 1<<b {
			return nil, fmt.Errorf("covering: Restore φ(%d) = %#x outside {0,1}^%d", i, v, b)
		}
	}
	for i, p := range points {
		if p.Dim != dim {
			return nil, fmt.Errorf("covering: Restore point %d has dim %d, φ has %d", i, p.Dim, dim)
		}
	}
	for t, buckets := range tables {
		if buckets == nil {
			return nil, fmt.Errorf("covering: Restore table %d is nil", t)
		}
	}
	store := pointstore.EmptyFlatBinary(dim)
	if err := store.Append(points); err != nil {
		return nil, err
	}
	return assemble(store, r, phi, seed, tables, cfg), nil
}

// parity returns the XOR of the bits of x.
func parity(x uint32) uint32 {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// maskedKey hashes the masked coordinates of p.
func maskedKey(p, mask vector.Binary) uint64 {
	h := uint64(len(p.Words)) * 0x9e3779b97f4a7c15
	for i, w := range p.Words {
		h = hashutil.Combine(h, w&mask.Words[i])
	}
	return h
}

// Dim returns the bit width the index was built for.
func (ix *Index) Dim() int { return ix.dim }

// Tables returns the table count 2^(r+1) − 1.
func (ix *Index) Tables() int { return len(ix.tables) }

// TableBuckets exposes table t's bucket map (read-only); it exists for
// serialization and white-box tests.
func (ix *Index) TableBuckets(t int) map[uint64]*lsh.Bucket { return ix.tables[t] }

// Radius returns the covering radius.
func (ix *Index) Radius() int { return ix.radius }

// Phi exposes the drawn random map φ (read-only); it exists for
// serialization — masks and tables are fully determined by it.
func (ix *Index) Phi() []uint32 { return ix.phi }

// Seed returns the construction seed φ was drawn from.
func (ix *Index) Seed() uint64 { return ix.seed }

// HLLRegisters returns m, the per-sketch register count.
func (ix *Index) HLLRegisters() int { return ix.m }

// HLLThreshold returns the pre-built-sketch bucket-size threshold.
func (ix *Index) HLLThreshold() int { return ix.thresh }

// Append adds points to the index, assigning ids from the current N
// upward. New points are hashed with the already-drawn φ, so the
// no-false-negatives guarantee — which is per-pair and oblivious to the
// data — covers them immediately, and the per-bucket sketches are
// maintained incrementally (a bucket crossing the size threshold gets its
// sketch built from its full id list, which matches what a fresh build
// would have produced — HLL insertion is order-independent).
//
// Append is the single-writer side of the contract: it must not run
// concurrently with queries or another Append. Wrap the index in
// shard.Sharded when mutation overlaps traffic.
func (ix *Index) Append(points []vector.Binary) error {
	if len(points) == 0 {
		return nil
	}
	for i, p := range points {
		if p.Dim != ix.dim {
			return fmt.Errorf("covering: Append point %d has dim %d, index dim is %d", i, p.Dim, ix.dim)
		}
	}
	base := ix.N()
	if int64(base)+int64(len(points)) > int64(1)<<31-1 {
		return fmt.Errorf("covering: Append would overflow the int32 id space (%d + %d)", base, len(points))
	}
	for t, buckets := range ix.tables {
		mask := ix.masks[t]
		for i, p := range points {
			key := maskedKey(p, mask)
			bk := buckets[key]
			if bk == nil {
				bk = &lsh.Bucket{}
				buckets[key] = bk
			}
			bk.IDs = append(bk.IDs, int32(base+i))
			switch {
			case bk.Sketch != nil:
				bk.Sketch.AddID(uint64(base + i))
			case len(bk.IDs) >= ix.thresh:
				s := hll.New(ix.m)
				for _, id := range bk.IDs {
					s.AddID(uint64(id))
				}
				bk.Sketch = s
			}
		}
	}
	return ix.PointStore().Append(points)
}

// Compact returns a new covering index without the points marked dead
// (len(dead) must equal N). The drawn map φ — and hence every mask — is
// kept, so no surviving point is re-hashed: every bucket drops its dead
// ids, survivors are renumbered by their rank among survivors, and the
// per-bucket sketches are rebuilt from the live ids. Answers are
// id-for-id the receiver's answers minus the dead points (modulo the
// renumbering), and the covering guarantee carries over unchanged. The
// receiver is read, not modified, and stays fully usable; if no point is
// marked dead the receiver itself is returned.
func (ix *Index) Compact(dead []bool) (*Index, error) {
	if len(dead) != ix.N() {
		return nil, fmt.Errorf("covering: Compact with %d dead flags for %d points", len(dead), ix.N())
	}
	remap := make([]int32, len(dead))
	live := 0
	for i, d := range dead {
		if d {
			remap[i] = -1
			continue
		}
		remap[i] = int32(live)
		live++
	}
	if live == ix.N() {
		return ix, nil
	}
	cstore, err := ix.PointStore().Compact(dead, live)
	if err != nil {
		return nil, err
	}
	tables := make([]map[uint64]*lsh.Bucket, len(ix.tables))
	for t, src := range ix.tables {
		dst := make(map[uint64]*lsh.Bucket, len(src))
		for key, b := range src {
			kept := make([]int32, 0, len(b.IDs))
			for _, id := range b.IDs {
				if nid := remap[id]; nid >= 0 {
					kept = append(kept, nid)
				}
			}
			if len(kept) == 0 {
				continue
			}
			nb := &lsh.Bucket{IDs: kept}
			if len(kept) >= ix.thresh {
				s := hll.New(ix.m)
				for _, id := range kept {
					s.AddID(uint64(id))
				}
				nb.Sketch = s
			}
			dst[key] = nb
		}
		tables[t] = dst
	}
	return assemble(cstore, ix.radius, ix.phi, ix.seed, tables,
		Config{HLLRegisters: ix.m, HLLThreshold: ix.thresh, Cost: ix.Cost()}), nil
}

// CompactStore implements core.Store by delegating to Compact.
func (ix *Index) CompactStore(dead []bool) (core.Store[vector.Binary], error) {
	return ix.Compact(dead)
}

// Compile-time check: the shard layer's contract.
var _ core.Store[vector.Binary] = (*Index)(nil)

// Defaults implements core.Store: the one supported option is the
// reporting radius, built at r.
func (ix *Index) Defaults() core.QueryOpts {
	return core.QueryOpts{Radius: core.Some(ix.radius)}
}

// lookupInto collects the query's bucket in every table into the pooled
// scratch *dst. The result aliases it and must not be retained past the
// scratch's release.
func (ix *Index) lookupInto(q vector.Binary, dst *[]*lsh.Bucket) []*lsh.Bucket {
	out := (*dst)[:0]
	for t, buckets := range ix.tables {
		if b := buckets[maskedKey(q, ix.masks[t])]; b != nil {
			out = append(out, b)
		}
	}
	*dst = out
	return out
}

// Query answers one rNNR query with the hybrid strategy over the covering
// tables. Both paths are exact: covering LSH has no false negatives and
// linear search scans everything, so Query always achieves recall 1.
func (ix *Index) Query(q vector.Binary) ([]int32, core.QueryStats) {
	return ix.query(q, ix.radius)
}

// QueryWith implements core.Store: Query reporting the points within
// o.Radius instead of the built radius. Narrowing keeps both paths exact,
// since the points within r' ≤ r are a subset of those the tables cover;
// a larger value answers at the built radius (core.QueryOpts.Resolve).
func (ix *Index) QueryWith(q vector.Binary, o core.QueryOpts) ([]int32, core.QueryStats, error) {
	o, err := o.Resolve(ix.Defaults())
	if err != nil {
		return nil, core.QueryStats{}, err
	}
	ids, stats := ix.query(q, o.Radius.Or(ix.radius))
	return ids, stats, nil
}

func (ix *Index) query(q vector.Binary, r int) ([]int32, core.QueryStats) {
	scratch := ix.lookups.Get().(*[]*lsh.Bucket)
	defer ix.lookups.Put(scratch)
	t0 := time.Now()
	return ix.Answer(q, float64(r), ix.lookupInto(q, scratch), t0)
}

// QueryLSH forces covering-LSH search (still exact — no false negatives).
func (ix *Index) QueryLSH(q vector.Binary) ([]int32, core.QueryStats) {
	scratch := ix.lookups.Get().(*[]*lsh.Bucket)
	defer ix.lookups.Put(scratch)
	t0 := time.Now()
	return ix.AnswerLSH(q, float64(ix.radius), ix.lookupInto(q, scratch), t0)
}

// QueryLinear forces the exact linear scan.
func (ix *Index) QueryLinear(q vector.Binary) ([]int32, core.QueryStats) {
	return ix.Scan(q, float64(ix.radius))
}

// DecideStrategy runs only the estimation steps over the covering bucket
// set and returns the decision without searching.
func (ix *Index) DecideStrategy(q vector.Binary) (core.Strategy, core.QueryStats) {
	scratch := ix.lookups.Get().(*[]*lsh.Bucket)
	defer ix.lookups.Put(scratch)
	t0 := time.Now()
	return ix.Decide(ix.lookupInto(q, scratch), t0)
}

// QueryBatch answers many queries concurrently, using up to workers
// goroutines (0 means GOMAXPROCS). Results are positionally aligned with
// queries.
func (ix *Index) QueryBatch(queries []vector.Binary, workers int) []core.BatchResult {
	if len(queries) == 0 {
		return nil
	}
	results := make([]core.BatchResult, len(queries))
	core.ForEach(len(queries), workers, func(i int) {
		ids, stats := ix.Query(queries[i])
		results[i] = core.BatchResult{IDs: ids, Stats: stats}
	})
	return results
}
