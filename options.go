package hybridlsh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pointstore"
)

// QuantMode selects the point-store quantization behavior of L2 indexes
// (see WithQuant).
type QuantMode = pointstore.Mode

// The quantization modes.
const (
	// QuantOff stores exact float32 values only (the default).
	QuantOff = pointstore.ModeOff
	// QuantSQ8 additionally keeps a scalar-quantized uint8 copy
	// (per-dimension min/max, one byte per coordinate — a 4× smaller
	// verification working set) and pre-filters candidates against it
	// under a conservative error bound before the exact re-check.
	// Answers are id-identical to QuantOff by construction.
	QuantSQ8 = pointstore.ModeSQ8
)

// ParseQuantMode parses "off" or "sq8" (the -quant flag values).
func ParseQuantMode(s string) (QuantMode, error) { return pointstore.ParseMode(s) }

// Option customizes index construction (New, NewSharded, NewLadder). The
// defaults reproduce the paper's experimental setting: δ = 0.1, L = 50
// tables, m = 128 HLL registers, k solved from the family's p₁(r) (or
// the paper's fixed k for the p-stable families). An option a metric or
// mode has no use for is ignored; the exceptions are errors: a serving
// mode (WithProbes, WithCovering) the metric does not serve, and
// WithCache on Cosine.
type Option func(*options)

type options struct {
	delta         float64
	tables        int
	k             int
	hllRegs       int
	hllThresh     int
	seed          uint64
	cost          core.CostModel
	slotWidth     float64
	shards        int
	compactThresh float64
	probes        int
	covering      bool
	cacheSize     int
	quant         QuantMode
}

// shardCount resolves the shard count of NewSharded (default 4).
func (o options) shardCount() int {
	if o.shards == 0 {
		return 4
	}
	return o.shards
}

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithDelta sets the per-point failure probability δ ∈ (0, 1); each true
// r-near neighbor is reported with probability ≥ 1 − δ. Default 0.1.
func WithDelta(delta float64) Option { return func(o *options) { o.delta = delta } }

// WithTables sets the number of hash tables L. Default 50.
func WithTables(l int) Option { return func(o *options) { o.tables = l } }

// WithK fixes the concatenation length k instead of solving it from p₁(r).
func WithK(k int) Option { return func(o *options) { o.k = k } }

// WithHLLRegisters sets the HyperLogLog register count m (power of two,
// 16–65536). Default 128 (≤ ~9% standard estimate error).
func WithHLLRegisters(m int) Option { return func(o *options) { o.hllRegs = m } }

// WithHLLThreshold sets the minimum bucket size that receives a pre-built
// sketch; smaller buckets are folded into the query-time merge on demand.
// Default: the register count m.
func WithHLLThreshold(t int) Option { return func(o *options) { o.hllThresh = t } }

// WithSeed fixes the construction seed for reproducibility. Default 0.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithCostModel supplies calibrated cost constants (see Calibrate). The
// default model uses β/α = 8.
func WithCostModel(c CostModel) Option { return func(o *options) { o.cost = c } }

// WithShards sets the partition count of NewSharded; New ignores it.
// Default 4; NewSharded clamps it to the point count.
func WithShards(s int) Option {
	return func(o *options) {
		if s < 1 {
			panic(fmt.Sprintf("hybridlsh: WithShards(%d), want >= 1", s))
		}
		o.shards = s
	}
}

// WithCompactionThreshold sets NewSharded's auto-compaction trigger: a shard is compacted — dead points dropped from its buckets,
// sketches rebuilt from live ids, hash functions kept — once Delete
// pushes its tombstoned-point ratio above t. Default 0.20; t >= 1
// disables auto-compaction (explicit Compact/CompactAll still work).
// New ignores it.
func WithCompactionThreshold(t float64) Option {
	return func(o *options) {
		if t <= 0 {
			panic(fmt.Sprintf("hybridlsh: WithCompactionThreshold(%v), want > 0", t))
		}
		o.compactThresh = t
	}
}

// WithCache installs a result cache of the given entry capacity on a
// NewSharded index: repeated queries (bit-identical points, same
// probe/radius override) are answered from an LRU without fanning out,
// and generation counters bumped by Append/Delete/Compact guarantee a
// cached answer is never served across a mutation — no resurrected
// tombstones, no missed new points. New ignores it; on Cosine, whose
// sparse points have no exact key encoding, NewSharded rejects it.
// Default: no cache.
func WithCache(entries int) Option {
	return func(o *options) {
		if entries < 1 {
			panic(fmt.Sprintf("hybridlsh: WithCache(%d), want >= 1", entries))
		}
		o.cacheSize = entries
	}
}

// WithProbes selects the multi-probe serving mode with T = t: each table
// is probed at the query's home bucket plus the t neighboring buckets
// most likely to hold near points (Lv et al., VLDB 2007), so far fewer
// tables reach the same recall — L defaults to 10 instead of 50. Larger t
// raises recall at fixed (k, L). Multi-probe is L2 only; on any other
// metric the constructor returns an error wrapping ErrUnsupportedOption.
func WithProbes(t int) Option {
	return func(o *options) {
		if t < 1 {
			panic(fmt.Sprintf("hybridlsh: WithProbes(%d), want >= 1", t))
		}
		o.probes = t
	}
}

// WithCovering selects the covering serving mode (Pagh, SODA 2016): the
// radius r must be an integer in [1, 12], and the index keeps 2^(r+1) − 1
// mask tables drawn from a random map φ so that every point within r
// shares a bucket with the query — no false negatives, recall 1.0.
// WithTables, WithK and WithDelta do not apply. Covering is Hamming only;
// on any other metric the constructor returns an error wrapping
// ErrUnsupportedOption.
func WithCovering() Option { return func(o *options) { o.covering = true } }

// WithQuant sets the point-store quantization mode of an L2 index.
// QuantSQ8 keeps a
// scalar-quantized copy of the points and uses it as a conservative
// pre-filter during candidate verification — answers stay id-identical
// to QuantOff, the verification working set shrinks 4×. The other
// metrics have no quantized layout and ignore it. Default QuantOff.
func WithQuant(m QuantMode) Option { return func(o *options) { o.quant = m } }

// WithSlotWidth overrides the p-stable slot width w (L1 and L2 only;
// ignored elsewhere). Defaults: w = 4r for L1, w = 2r for L2, the paper's
// settings.
func WithSlotWidth(w float64) Option {
	return func(o *options) {
		if w <= 0 {
			panic(fmt.Sprintf("hybridlsh: WithSlotWidth(%v), want > 0", w))
		}
		o.slotWidth = w
	}
}
