package main

import (
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	hybridlsh "repro"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/pointstore"
	"repro/internal/rng"
	"repro/internal/vector"
)

// space adapts one point type to the generic engine: how an index over
// it is built through the public root API, how a point travels in a JSON
// request, and the brute-force reference the answers are checked
// against.
type space[P any] struct {
	// metric is both hybridserve's -metric value and the snapshot's
	// metric identifier.
	metric string
	build  func(data []P, w *workload) (io.WriterTo, error)
	// appendJSON appends p as the JSON array hybridserve parses.
	appendJSON func(dst []byte, p P) []byte
	// truth returns, ascending, the ids of every point of data within r
	// of q: the exact answer by linear scan, independent of the index.
	truth func(data []P, q P, r float64) []int32
	// within reports dist(a, b) <= r up to rounding slack. An id the
	// server reports but truth lacks is an error only if it also fails
	// this: the server sums squared differences in another order, so a
	// point within one ulp of r may fall on either side.
	within func(a, b P, r float64) bool
	// store builds the point layout the served index verifies against,
	// for the traced run's VerifyRadius/ScanRadius spans.
	store pointstore.Builder[P]
	// fresh draws a point for the append stream and beacon makes the
	// k-th beacon, shaped like an existing point; set only where a
	// read-write workload uses the space.
	fresh  func(r *rng.Rand, data []P) P
	beacon func(k int, like P) P
}

// newRand derives an independent stream of the run's seed for one
// purpose, so that drawing more from one does not shift another.
func newRand(seed uint64, purpose string) *rng.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rng.New(seed ^ h.Sum64())
}

// radiusSlack is the relative rounding slack of within.
const radiusSlack = 1e-6

var denseSpace = &space[vector.Dense]{
	metric: persist.MetricL2,
	build: func(data []vector.Dense, w *workload) (io.WriterTo, error) {
		return hybridlsh.NewShardedL2Index(data, w.Radius,
			hybridlsh.WithSeed(hashSeed), hybridlsh.WithShards(shards), hybridlsh.WithCostModel(w.Cost))
	},
	appendJSON: appendDenseJSON,
	truth:      truthL2,
	within: func(a, b vector.Dense, r float64) bool {
		lim := r * (1 + radiusSlack)
		return vector.L2Sq(a, b) <= lim*lim
	},
	store:  pointstore.DenseL2Builder(pointstore.ModeOff),
	fresh:  freshDense,
	beacon: func(k int, like vector.Dense) vector.Dense { return beaconDense(k, len(like)) },
}

var binarySpace = &space[vector.Binary]{
	metric: persist.MetricHamming,
	build: func(data []vector.Binary, w *workload) (io.WriterTo, error) {
		return hybridlsh.NewShardedHammingIndex(data, w.Radius,
			hybridlsh.WithSeed(hashSeed), hybridlsh.WithShards(shards), hybridlsh.WithCostModel(w.Cost))
	},
	appendJSON: appendBinaryJSON,
	truth:      truthHamming,
	within: func(a, b vector.Binary, r float64) bool {
		return float64(vector.Hamming(a, b)) <= r
	},
	store: pointstore.BinaryHammingBuilder(),
}

// corelData is the paper's Corel protocol: the Corel-like mixture with
// w.Queries of its points held out as the query set.
func corelData(w *workload) (data, queries []vector.Dense) {
	return dataset.SplitQueries(dataset.CorelLike(1.0, shapeSeed).Points, w.Queries, shapeSeed)
}

// mnistData holds queries out of the MNIST-like fingerprints the same
// way.
func mnistData(w *workload) (data, queries []vector.Binary) {
	return dataset.SplitQueries(dataset.MNISTLike(1.0, shapeSeed).Points, w.Queries, shapeSeed)
}

// The dense128 mixture. Within-cluster L2 distance is about
// spread*sqrt(2*dim) = 16*spread, so at r = 0.3 the tightest quarter of
// the clusters (spread < 0.019) report the whole cluster (~195 ids) and
// the rest report next to nothing: selective, hash-dominated queries.
const (
	dense128N        = 50000
	dense128Dim      = 128
	dense128Clusters = 256
	dense128SpreadLo = 0.01
	dense128SpreadHi = 0.1
)

// dense128Data draws the mixture's centres and spreads, then its points,
// and holds the queries out.
func dense128Data(w *workload) (data, queries []vector.Dense) {
	shape := rng.New(shapeSeed ^ 0xd128)
	centers := make([]float32, dense128Clusters*dense128Dim)
	for i := range centers {
		centers[i] = float32(shape.Float64())
	}
	spreads := make([]float64, dense128Clusters)
	for c := range spreads {
		spreads[c] = math.Exp(math.Log(dense128SpreadLo) +
			shape.Float64()*(math.Log(dense128SpreadHi)-math.Log(dense128SpreadLo)))
	}
	r := rng.New(shapeSeed ^ 0x5a3c)
	total := dense128N + w.Queries
	flat := make([]float32, total*dense128Dim)
	pts := make([]vector.Dense, total)
	for i := range pts {
		c := r.Intn(dense128Clusters)
		row := flat[i*dense128Dim : (i+1)*dense128Dim : (i+1)*dense128Dim]
		center := centers[c*dense128Dim : (c+1)*dense128Dim]
		for j := range row {
			row[j] = center[j] + float32(r.Normal()*spreads[c])
		}
		pts[i] = row
	}
	return dataset.SplitQueries(pts, w.Queries, shapeSeed)
}

// freshDense is one point for the append stream: a stored point nudged
// by sigma = 0.01 per coordinate, so appends land inside the clusters
// queries report from.
func freshDense(r *rng.Rand, data []vector.Dense) vector.Dense {
	src := data[r.Intn(len(data))]
	p := make(vector.Dense, len(src))
	for j, v := range src {
		p[j] = float32(math.Min(1, math.Max(0, float64(v)+r.Normal()*0.01)))
	}
	return p
}

// beaconDense is the k-th beacon: a point no closer than 1 to any other
// beacon and farther than that from the data (which lives in [0,1]^dim),
// so a query for it reports its own id or nothing and costs the server
// next to no work.
func beaconDense(k, dim int) vector.Dense {
	p := make(vector.Dense, dim)
	for j := range p {
		p[j] = 2
	}
	p[k%dim] += float32(1 + k/dim)
	return p
}

func appendDenseJSON(dst []byte, p vector.Dense) []byte {
	dst = append(dst, '[')
	for i, v := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		// Shortest form that parses back to the same float32.
		dst = strconv.AppendFloat(dst, float64(v), 'g', -1, 32)
	}
	return append(dst, ']')
}

func appendBinaryJSON(dst []byte, p vector.Binary) []byte {
	dst = append(dst, '[')
	for i := 0; i < p.Dim; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if p.Bit(i) {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return append(dst, ']')
}

// truthL2 scans every point, abandoning a distance once the partial sum
// of squares passes r^2 (most points of another cluster leave after the
// first block of coordinates).
func truthL2(data []vector.Dense, q vector.Dense, r float64) []int32 {
	const block = 8
	r2 := r * r
	var out []int32
	for i, p := range data {
		sum := 0.0
		for j := 0; j < len(q) && sum <= r2; j += block {
			end := min(j+block, len(q))
			for k := j; k < end; k++ {
				d := float64(p[k]) - float64(q[k])
				sum += d * d
			}
		}
		if sum <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

func truthHamming(data []vector.Binary, q vector.Binary, r float64) []int32 {
	var out []int32
	for i, p := range data {
		if float64(vector.Hamming(p, q)) <= r {
			out = append(out, int32(i))
		}
	}
	return out
}

// allTruth computes the ground truth of every query on all cores.
func allTruth[P any](sp *space[P], data, queries []P, r float64) [][]int32 {
	out := make([][]int32, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				out[i] = sp.truth(data, queries[i], r)
			}
		}()
	}
	wg.Wait()
	return out
}
