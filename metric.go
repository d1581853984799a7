package hybridlsh

import (
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/pointstore"
)

// Metric is a distance over points of type P together with everything an
// index over it needs: the LSH family that hashes it, the point store
// that verifies candidates, the default concatenation length k and slot
// width w, and the tag its snapshots carry. The hybrid strategy itself
// does not depend on any of these; the type parameter makes a
// metric/point-type mismatch a compile error. The six metrics are the
// package's values below; there is no other way to make one.
type Metric[P any] struct {
	name string
	dist distance.Func[P]
	// family draws the LSH family for dim-dimensional points at slot
	// width w (p-stable families; the others ignore it) and seed.
	family func(dim int, w float64, seed uint64) lsh.Family[P]
	// w is the default slot width as a multiple of the radius (0: the
	// family has none), k the default concatenation length (0: solved
	// from p₁(r) and δ).
	w float64
	k int
	// store picks the point layout under a quantization mode; nil is the
	// generic store over dist.
	store func(pointstore.Mode) pointstore.Builder[P]
	// key is the exact point encoding WithCache keys on (nil: no cache).
	key func(P) string
	// probes and cover mark the serving modes beyond classic the metric
	// supports: multi-probe (WithProbes) and covering (WithCovering).
	probes, cover bool
}

// The six metrics: L2 and L1 on dense vectors under 2- and 1-stable
// projections (the paper's Corel and CoverType settings k = 7, w = 2r and
// k = 8, w = 4r), Angular (normalized angle θ/π) on dense unit vectors
// under cross-polytope LSH (Andoni et al., NIPS 2015), Cosine (1 − cos θ)
// on sparse vectors under SimHash, Hamming on binary vectors under bit
// sampling and Jaccard on binary vectors read as sets under MinHash. L2
// alone keeps a quantizable flat store (WithQuant) and serves
// multi-probe (WithProbes); Hamming alone serves covering
// (WithCovering).
var (
	L2 = Metric[Dense]{
		name: persist.MetricL2, dist: distance.L2, w: 2, k: 7,
		family: func(dim int, w float64, _ uint64) lsh.Family[Dense] { return lsh.NewPStableL2(dim, w) },
		store:  pointstore.DenseL2Builder, key: Dense.CacheKey, probes: true,
	}
	L1 = Metric[Dense]{
		name: persist.MetricL1, dist: distance.L1, w: 4, k: 8,
		family: func(dim int, w float64, _ uint64) lsh.Family[Dense] { return lsh.NewPStableL1(dim, w) },
		key:    Dense.CacheKey,
	}
	Angular = Metric[Dense]{
		name: persist.MetricAngular, dist: distance.AngularDense,
		family: func(dim int, _ float64, seed uint64) lsh.Family[Dense] { return lsh.NewCrossPolytope(dim, seed^0xc9) },
		key:    Dense.CacheKey,
	}
	Cosine = Metric[Sparse]{
		name: persist.MetricCosine, dist: distance.Cosine,
		family: func(dim int, _ float64, _ uint64) lsh.Family[Sparse] { return lsh.NewSimHashCosine(dim) },
	}
	Hamming = Metric[Binary]{
		name: persist.MetricHamming, dist: distance.Hamming,
		family: func(dim int, _ float64, _ uint64) lsh.Family[Binary] { return lsh.NewBitSampling(dim) },
		store:  func(pointstore.Mode) pointstore.Builder[Binary] { return pointstore.BinaryHammingBuilder() },
		key:    Binary.CacheKey, cover: true,
	}
	Jaccard = Metric[Binary]{
		name: persist.MetricJaccard, dist: distance.Jaccard,
		family: func(dim int, _ float64, _ uint64) lsh.Family[Binary] { return lsh.NewMinHash(dim) },
		key:    Binary.CacheKey,
	}
)

// String returns the metric's name, the tag its snapshots carry: "l2",
// "l1", "angular", "cosine", "hamming" or "jaccard".
func (m Metric[P]) String() string { return m.name }

// builder returns the point store the metric verifies with.
func (m Metric[P]) builder(mode pointstore.Mode) pointstore.Builder[P] {
	if m.store == nil {
		return pointstore.GenericBuilder(m.dist)
	}
	return m.store(mode)
}

// Calibrate measures the cost-model constants (α, β) for points under m
// on this machine; pass the result via WithCostModel. queries and sample
// default to the paper's 100 and 10,000 when 0. β is timed through the
// point store an index under m verifies with (for L2 the flat store and
// its batch kernel), so it is the cost of the verification the index
// performs, not of a stand-alone distance call.
func Calibrate[P any](m Metric[P], points []P, queries, sample int, seed uint64) CostModel {
	return core.Calibrate(points, m.builder(pointstore.ModeOff), queries, sample, seed)
}

// GroundTruth returns the exact rNNR answer under m by linear scan, for
// recall evaluation.
func GroundTruth[P any](m Metric[P], points []P, q P, r float64) []int32 {
	return core.GroundTruth(points, m.dist, q, r)
}
