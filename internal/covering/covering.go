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
// The mask tables are an ordinary lsh.Tables whose table-v hasher keys on
// its φ-mask, and the index is a core.Index over them: queries, Append and
// Compact are the shared Algorithm-2 code, so shard.Sharded fans out,
// tombstones, auto-compacts and snapshots covering shards with the same
// machinery as classic and multi-probe ones. Append hashes new points with
// the already-drawn φ (the guarantee is per-pair and oblivious to the data,
// so it survives growth), Compact rewrites the mask tables without the dead
// points while keeping φ, and Restore reassembles a persisted index without
// re-hashing. The mode descriptor sets core.QueryOpts.Radius: a per-query
// radius r' ≤ r narrows the report while keeping the guarantee, because
// the points within r' are a subset of the points within r that the
// tables already cover.
package covering

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hashutil"
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

// withDefaults fills in the defaulted fields and validates the cost
// model; lsh.RestoreTables validates the sketch geometry.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.HLLRegisters == 0 {
		cfg.HLLRegisters = 128
	}
	if cfg.Cost == (core.CostModel{}) {
		cfg.Cost = core.DefaultCostModel
	}
	if !cfg.Cost.Valid() {
		return cfg, fmt.Errorf("covering: cost model %+v, want positive constants", cfg.Cost)
	}
	return cfg, nil
}

// Index is the covering-LSH structure: a core.Index over 2^(r+1)−1 mask
// tables with per-bucket sketches, plus the drawn map φ the masks derive
// from. It is safe for any number of concurrent queries, but — like
// core.Index — single-writer: Append must not run concurrently with
// queries or another Append (wrap in shard.Sharded for concurrent
// mutation).
type Index struct {
	*core.Index[vector.Binary]
	seed uint64
	phi  []uint32 // φ(i) ∈ {0,1}^(r+1) per dimension
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

// maskHasher is table v's hash function: it keeps exactly the
// coordinates i with parity(φ(i) & v) = 1. It is one base function
// (K() == 1) — the whole mask — which is how persist records the tables.
type maskHasher struct{ mask vector.Binary }

// Key implements lsh.Hasher: a hash of the masked coordinates of p.
func (h *maskHasher) Key(p vector.Binary) uint64 {
	k := uint64(len(p.Words)) * 0x9e3779b97f4a7c15
	for i, w := range p.Words {
		k = hashutil.Combine(k, w&h.mask.Words[i])
	}
	return k
}

// K implements lsh.Hasher.
func (h *maskHasher) K() int { return 1 }

// maskTables derives one empty table per non-zero v ∈ {0,1}^(r+1), keyed
// on v's keep-mask.
func maskTables(phi []uint32, r int) []lsh.Table[vector.Binary] {
	dim := len(phi)
	tables := make([]lsh.Table[vector.Binary], NumTables(r))
	for t := range tables {
		v := uint32(t + 1)
		mask := vector.NewBinary(dim)
		for i := 0; i < dim; i++ {
			if parity(phi[i]&v) == 1 {
				mask.SetBit(i, true)
			}
		}
		tables[t].Hasher = &maskHasher{mask: mask}
	}
	return tables
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

	ix, err := assemble(pointstore.EmptyFlatBinary(dim), r, phi, cfg.Seed, maskTables(phi, r), cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.Append(points); err != nil {
		return nil, err
	}
	return ix, nil
}

// assemble wires an Index over already consistent parts (cfg defaulted).
func assemble(store pointstore.Store[vector.Binary], r int, phi []uint32, seed uint64, tables []lsh.Table[vector.Binary], cfg Config) (*Index, error) {
	lt, err := lsh.RestoreTables(lsh.Params{
		K:            1,
		L:            len(tables),
		HLLRegisters: cfg.HLLRegisters,
		HLLThreshold: cfg.HLLThreshold,
	}, tables, store.Len())
	if err != nil {
		return nil, err
	}
	cix, err := core.Assemble(store, lt, cfg.Cost, float64(r), core.QueryOpts{Radius: core.Some(r)})
	if err != nil {
		return nil, err
	}
	return &Index{Index: cix, seed: seed, phi: phi}, nil
}

// Restore reassembles an Index from decoded snapshot state without
// re-hashing: the bucket maps (one per mask table) are used as-is, so the
// restored index answers queries id-for-id identically to the saved one.
// Unlike New it accepts an empty point set (a fully compacted shard); r
// and φ must be consistent with each other and the tables.
func Restore(points []vector.Binary, r int, phi []uint32, seed uint64, buckets []map[uint64]*lsh.Bucket, cfg Config) (*Index, error) {
	dim := len(phi)
	if err := validRadius(r, dim); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(buckets) != NumTables(r) {
		return nil, fmt.Errorf("covering: Restore with %d tables for radius %d, want %d", len(buckets), r, NumTables(r))
	}
	b := uint(r + 1)
	for i, v := range phi {
		if v >= 1<<b {
			return nil, fmt.Errorf("covering: Restore φ(%d) = %#x outside {0,1}^%d", i, v, b)
		}
	}
	store := pointstore.EmptyFlatBinary(dim)
	if err := store.Append(points); err != nil {
		return nil, err
	}
	tables := maskTables(phi, r)
	for t := range tables {
		tables[t].Buckets = buckets[t]
	}
	return assemble(store, r, phi, seed, tables, cfg)
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

// Dim returns the bit width the index was built for.
func (ix *Index) Dim() int { return len(ix.phi) }

// Tables returns the table count 2^(r+1) − 1.
func (ix *Index) Tables() int { return ix.L() }

// TableBuckets exposes table t's bucket map (read-only); it exists for
// serialization and white-box tests.
func (ix *Index) TableBuckets(t int) map[uint64]*lsh.Bucket {
	return ix.Index.Tables().Table(t).Buckets
}

// Radius returns the covering radius.
func (ix *Index) Radius() int { return ix.Defaults().Radius.N }

// Phi exposes the drawn random map φ (read-only); it exists for
// serialization — masks and tables are fully determined by it.
func (ix *Index) Phi() []uint32 { return ix.phi }

// Seed returns the construction seed φ was drawn from.
func (ix *Index) Seed() uint64 { return ix.seed }

// HLLRegisters returns m, the per-sketch register count.
func (ix *Index) HLLRegisters() int { return ix.Index.Tables().Params().HLLRegisters }

// HLLThreshold returns the pre-built-sketch bucket-size threshold.
func (ix *Index) HLLThreshold() int { return ix.Index.Tables().Params().HLLThreshold }

// Compact returns a new covering index without the points marked dead
// (see core.Index.Compact). φ — and hence every mask — is kept, so the
// covering guarantee carries over unchanged. If no point is marked dead
// the receiver itself is returned.
func (ix *Index) Compact(dead []bool) (*Index, error) {
	cix, err := ix.Index.Compact(dead)
	if err != nil {
		return nil, err
	}
	if cix == ix.Index {
		return ix, nil
	}
	return &Index{Index: cix, seed: ix.seed, phi: ix.phi}, nil
}

// CompactStore implements core.Store by delegating to Compact.
func (ix *Index) CompactStore(dead []bool) (core.Store[vector.Binary], error) {
	return ix.Compact(dead)
}

// Compile-time check: the shard layer's contract.
var _ core.Store[vector.Binary] = (*Index)(nil)
