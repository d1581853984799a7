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
// its φ-mask, built by lsh.BuildWith's sort path, and a covering index is
// a plain core.Index over them: queries, Append and Compact are the
// shared Algorithm-2 code, so shard.Sharded fans out, tombstones,
// auto-compacts and snapshots covering shards with the same machinery as
// classic and multi-probe ones. Every mask hasher points to the drawn
// Phi, which PhiOf reads back, so φ travels with the tables: Append
// hashes new points with the already-drawn φ (the guarantee is per-pair
// and oblivious to the data, so it survives growth), Compact rewrites the
// mask tables without the dead points while keeping φ, and Restore
// reassembles a persisted index without re-hashing. The mode descriptor
// sets core.QueryOpts.Radius: a per-query radius r' ≤ r narrows the
// report while keeping the guarantee, because the points within r' are a
// subset of the points within r that the tables already cover.
package covering

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/distance"
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

// Phi is the random map φ a covering index was drawn with, together with
// the radius it covers and the seed it was drawn from. Every mask
// table's hasher points to it, so Append, Compact and a snapshot carry
// it along with the tables; PhiOf reads it back. Read-only.
type Phi struct {
	Radius int
	Seed   uint64
	Map    []uint32 // φ(i) ∈ {0,1}^(Radius+1) for every dimension i
}

// maskHasher is table v's hash function: it keeps exactly the
// coordinates i with parity(φ(i) & v) = 1. It is one base function
// (K() == 1) — the whole mask — which is how persist records the tables.
type maskHasher struct {
	mask vector.Binary
	phi  *Phi
}

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

// maskHashers derives one table hasher per non-zero v ∈ {0,1}^(r+1),
// keyed on v's keep-mask.
func maskHashers(phi *Phi) []lsh.Hasher[vector.Binary] {
	dim := len(phi.Map)
	hashers := make([]lsh.Hasher[vector.Binary], NumTables(phi.Radius))
	for t := range hashers {
		v := uint32(t + 1)
		mask := vector.NewBinary(dim)
		for i := 0; i < dim; i++ {
			if parity(phi.Map[i]&v) == 1 {
				mask.SetBit(i, true)
			}
		}
		hashers[t] = &maskHasher{mask: mask, phi: phi}
	}
	return hashers
}

// PhiOf returns the map φ of a covering index, and false for an index
// in any other mode.
func PhiOf[P any](ix *core.Index[P]) (*Phi, bool) {
	if h, ok := any(ix.Tables().Hasher(0)).(*maskHasher); ok {
		return h.phi, true
	}
	return nil, false
}

// New builds a covering index over binary points for integer radius r.
func New(points []vector.Binary, r int, cfg Config) (*core.Index[vector.Binary], error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("covering: empty point set")
	}
	dim, err := core.PointsDim(points)
	if err != nil {
		return nil, err
	}
	if err := validRadius(r, dim); err != nil {
		return nil, err
	}
	if cfg, err = cfg.withDefaults(); err != nil {
		return nil, err
	}

	// φ(i) ∈ {0,1}^b per dimension, drawn uniformly.
	b := uint(r + 1)
	rnd := rng.New(cfg.Seed)
	phi := &Phi{Radius: r, Seed: cfg.Seed, Map: make([]uint32, dim)}
	for i := range phi.Map {
		phi.Map[i] = uint32(rnd.Uint64() & ((1 << b) - 1))
	}

	lt, err := lsh.BuildWith(points, maskHashers(phi), cfg.params(r))
	if err != nil {
		return nil, err
	}
	store, err := pointstore.NewFlatBinary(points)
	if err != nil {
		return nil, err
	}
	return assemble(store, lt, r, cfg)
}

// params are the table parameters of a radius-r covering index: one
// mask per table, 2^(r+1) − 1 tables.
func (cfg Config) params(r int) lsh.Params {
	return lsh.Params{K: 1, L: NumTables(r), HLLRegisters: cfg.HLLRegisters, HLLThreshold: cfg.HLLThreshold}
}

// assemble wires a covering core.Index over its store and mask tables
// (cfg defaulted): Hamming distance, reporting radius r.
func assemble(store pointstore.Store[vector.Binary], lt *lsh.Tables[vector.Binary], r int, cfg Config) (*core.Index[vector.Binary], error) {
	return core.Assemble(store, lt, distance.Hamming, cfg.Cost, float64(r), core.QueryOpts{Radius: core.Some(r)})
}

// Restore reassembles a covering index from decoded snapshot state
// without re-hashing: the decoded tables (one slab per mask table) are
// used as-is, so the restored index answers queries id-for-id
// identically to the saved one. Unlike New it accepts an empty point set
// (a fully compacted shard); phi must be consistent with itself and the
// tables. cfg.Seed is not used: the seed travels in phi.
func Restore(points []vector.Binary, phi *Phi, slabs []*lsh.Slab, cfg Config) (*core.Index[vector.Binary], error) {
	dim := len(phi.Map)
	if err := validRadius(phi.Radius, dim); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(slabs) != NumTables(phi.Radius) {
		return nil, fmt.Errorf("covering: Restore with %d tables for radius %d, want %d", len(slabs), phi.Radius, NumTables(phi.Radius))
	}
	b := uint(phi.Radius + 1)
	for i, v := range phi.Map {
		if v >= 1<<b {
			return nil, fmt.Errorf("covering: Restore φ(%d) = %#x outside {0,1}^%d", i, v, b)
		}
	}
	store := pointstore.EmptyFlatBinary(dim)
	if err := store.Append(points); err != nil {
		return nil, err
	}
	lt, err := lsh.RestoreTables(cfg.params(phi.Radius), maskHashers(phi), slabs, store.Len())
	if err != nil {
		return nil, err
	}
	return assemble(store, lt, phi.Radius, cfg)
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
