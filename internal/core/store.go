package core

import (
	"errors"
	"fmt"

	"repro/internal/pointstore"
)

// Store is the index contract the shard package builds on: one shard is
// a hybrid index that can report its size, expose a range of its points
// for compaction absorption, answer hybrid queries, grow by appending,
// and rewrite itself without a set of dead points. *Index is its one
// implementation, in every serving mode — classic, multi-probe and
// covering (whose φ rides in its mask tables' hashers) — which is what
// lets the sharding, compaction and persistence machinery serve every
// mode unchanged. It stays an interface so that holders of a shard's
// index (shard.ShardSnapshot.Index) can be type-asserted.
//
// Implementations follow Index's concurrency contract: any number of
// concurrent QueryBlock calls, but Append is single-writer and Compact may
// run concurrently with queries only (the shard layer provides the
// locking).
type Store[P any] interface {
	// N returns the number of indexed points.
	N() int
	// Dim returns the points' dimension (-1 for a point type without
	// one); queries of another dimension are an error.
	Dim() int
	// Rows returns the stored points lo..hi-1 (read-only).
	Rows(lo, hi int) []P
	// QueryBlock answers every query of block with the hybrid strategy
	// under o, calling emit(i, ids, stats) for query i in order; ids is
	// valid only during the call. The zero QueryOpts is the store's
	// built-in behaviour; an option the store does not support yields
	// ErrUnsupportedOption (see QueryOpts.Resolve). It is the only query
	// path the shard layer takes: one resolve, one pooled state and one
	// hashing pass per block (see Index.QueryBlock).
	QueryBlock(block []P, o QueryOpts, emit func(i int, ids []int32, stats QueryStats)) error
	// Defaults returns the options the store supports, set to the values
	// it was built with: T for a multi-probe store, the built radius for
	// a covering one, nothing for the classic index.
	Defaults() QueryOpts
	// Cost returns the calibrated cost model driving the store's
	// LINEAR-vs-LSH decisions; observability layers surface its α/β
	// terms next to each query's decision trace.
	Cost() CostModel
	// SetCost atomically swaps the cost model behind Cost(). Unlike
	// Append it is exempt from the single-writer contract: it may run
	// concurrently with queries and with other SetCost calls, which is
	// what lets online recalibration refit a serving index without
	// pausing traffic. Implementations must reject models that are not
	// Usable() (non-positive, NaN or Inf constants).
	SetCost(c CostModel) error
	// Append adds points under ids N..N+len(points)-1.
	Append(points []P) error
	// Compact returns a new index without the points marked dead (see
	// Index.Compact for the exact contract: hash functions kept,
	// survivors rank-renumbered, sketches rebuilt).
	Compact(dead []bool) (*Index[P], error)
	// StoreStats returns the point store's layout and verification
	// counters; the serving layer sums them across shards for /stats
	// and /metrics.
	StoreStats() pointstore.Stats
}

// ErrUnsupportedOption marks a per-query option the answering store
// cannot honour: a probe override on a store that is not multi-probe, a
// radius override on one that is not covering.
var ErrUnsupportedOption = errors.New("core: unsupported query option")

// OptInt is an optional per-query integer; the zero value is unset.
type OptInt struct {
	N   int
	Set bool
}

// Some returns the set option n.
func Some(n int) OptInt { return OptInt{N: n, Set: true} }

// Or returns the option's value, or def when it is unset.
func (o OptInt) Or(def int) int {
	if o.Set {
		return o.N
	}
	return def
}

// QueryOpts are the per-query overrides of Store.QueryBlock; the zero
// value asks for the store's built-in behaviour, i.e. Index.Query. The
// same struct doubles as a store's mode descriptor: Store.Defaults
// returns it with exactly the options the store supports set to the
// values it was built with.
type QueryOpts struct {
	// Probes is the multi-probe T: extra buckets probed per table beyond
	// the home bucket (0 probes home buckets only).
	Probes OptInt
	// Radius is the covering reporting radius. It may only narrow: the
	// tables cover pairs within the built radius and no further, so a
	// larger value answers at the built radius (serving layers reject
	// such requests instead of relying on the clamp).
	Radius OptInt
}

// Mode names the serving mode a store's Defaults describe.
func (o QueryOpts) Mode() string {
	switch {
	case o.Radius.Set:
		return "covering"
	case o.Probes.Set:
		return "multiprobe"
	}
	return "classic"
}

// Resolve checks o against def, the Defaults of the store about to
// answer, and returns it in canonical form. An option def leaves unset
// is one the store cannot honour: ErrUnsupportedOption. A supported
// option that asks for what the store does anyway — a negative value,
// the built value itself, a radius beyond the built one — comes back
// unset, so equal requests compare equal (the result cache keys on the
// resolved options).
func (o QueryOpts) Resolve(def QueryOpts) (QueryOpts, error) {
	if o.Probes.Set && !def.Probes.Set {
		return o, fmt.Errorf("%w: probes on a store that is not multi-probe", ErrUnsupportedOption)
	}
	if o.Radius.Set && !def.Radius.Set {
		return o, fmt.Errorf("%w: radius on a store that is not covering", ErrUnsupportedOption)
	}
	if !o.Probes.Set || o.Probes.N < 0 || o.Probes == def.Probes {
		o.Probes = OptInt{}
	}
	if !o.Radius.Set || o.Radius.N < 0 || o.Radius.N >= def.Radius.N {
		o.Radius = OptInt{}
	}
	return o, nil
}
