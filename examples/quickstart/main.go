// Quickstart: build a hybrid rNNR index over Euclidean data, run a few
// queries, and look at which strategy answered each one.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	hybridlsh "repro"
)

func main() {
	const (
		n      = 20000
		dim    = 32
		radius = 0.25
	)
	rnd := rand.New(rand.NewSource(1))

	// A toy dataset with the structure that motivates hybrid search
	// (Figure 1 of the paper): a huge near-duplicate blob — 60% of all
	// points within a tiny ball, like template-generated records — plus
	// uniform background noise. Queries in the blob are "hard" (output
	// ≈ 12,000 points, duplicates in every bucket of every table);
	// queries in the noise are "easy".
	points := make([]hybridlsh.Dense, n)
	center := randVec(rnd, dim, 1.0)
	for i := range points {
		if i < n*3/5 {
			points[i] = jitter(rnd, center, 0.01)
		} else {
			points[i] = randVec(rnd, dim, 1.0)
		}
	}

	// One index per (radius, δ); defaults are the paper's parameters
	// (δ = 0.1, L = 50 tables, m = 128 HLL registers, k = 7, w = 2r).
	index, err := hybridlsh.New(hybridlsh.L2, points, radius, hybridlsh.WithSeed(42))
	if err != nil {
		panic(err)
	}
	fmt.Printf("indexed %d points: L=%d tables, k=%d, p1(r)=%.3f\n\n",
		index.N(), index.L(), index.K(), index.P1())

	// An easy query (background noise) and a hard one (blob center).
	for _, tc := range []struct {
		name string
		q    hybridlsh.Dense
	}{
		{"easy (sparse region)", randVec(rnd, dim, 1.0)},
		{"hard (dense blob)   ", center},
	} {
		ids, stats := index.Query(tc.q)
		fmt.Printf("%s -> %5d neighbors | strategy=%-6s collisions=%-6d estCand=%-8.0f time=%v\n",
			tc.name, len(ids), stats.Strategy, stats.Collisions, stats.EstCandidates, stats.TotalTime())
	}

	// Recall check against exact ground truth for one query.
	q := jitter(rnd, center, 0.01)
	ids, _ := index.Query(q)
	truth := hybridlsh.GroundTruth(hybridlsh.L2, points, q, radius)
	fmt.Printf("\nrecall vs exact scan: %.3f (%d reported / %d true, δ = 0.1 budget)\n",
		hybridlsh.Recall(ids, truth), len(ids), len(truth))
}

func randVec(rnd *rand.Rand, dim int, scale float64) hybridlsh.Dense {
	v := make(hybridlsh.Dense, dim)
	for i := range v {
		v[i] = float32(rnd.Float64() * scale)
	}
	return v
}

func jitter(rnd *rand.Rand, base hybridlsh.Dense, eps float64) hybridlsh.Dense {
	v := make(hybridlsh.Dense, len(base))
	for i := range v {
		v[i] = base[i] + float32(rnd.NormFloat64()*eps)
	}
	return v
}
