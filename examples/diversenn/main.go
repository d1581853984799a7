// k-diverse near neighbors — the paper's second motivating use case
// (Abbar, Amer-Yahia, Indyk, Mahabadi, WWW 2013: real-time recommendation
// of diverse related articles).
//
// Given an article the user just read, recommend k related articles that
// are (a) all within cosine distance r of it and (b) maximally diverse
// among themselves. rNNR is the building block: first report ALL r-near
// articles (hybrid LSH), then greedily select the k that maximize the
// minimum pairwise distance (the standard 2-approximation of max-min
// diversification).
//
//	go run ./examples/diversenn
package main

import (
	"fmt"

	hybridlsh "repro"
	"repro/internal/dataset"
	"repro/internal/distance"
)

const (
	k      = 5    // recommendations per query article
	radius = 0.15 // relatedness threshold (cosine distance)
)

func main() {
	// A Webspam-like corpus doubles as a news archive with syndicated
	// near-duplicate stories (wire copies) and long-tail originals.
	ds := dataset.WebspamLike(0.05, 31)
	corpus, reading := dataset.SplitQueries(ds.Points, 6, 32)
	fmt.Printf("archive: %d articles, %d-term vocabulary\n", len(corpus), ds.Meta.Dim)

	index, err := hybridlsh.New(hybridlsh.Cosine, corpus, radius, hybridlsh.WithSeed(33))
	if err != nil {
		panic(err)
	}
	fmt.Printf("cosine hybrid index: L=%d, k=%d\n\n", index.L(), index.K())

	for qi, article := range reading {
		related, stats := index.Query(article)
		picks := diversify(corpus, related, k)
		fmt.Printf("article %d: %5d related (strategy=%-6s, %v)\n",
			qi, len(related), stats.Strategy, stats.TotalTime())
		if len(picks) == 0 {
			fmt.Println("           no recommendations within the relatedness radius")
			continue
		}
		minDiv := minPairwise(corpus, picks)
		fmt.Printf("           recommending %v (min pairwise distance %.3f)\n", picks, minDiv)
	}

	fmt.Println("\nwire-copy queries (thousands of near-duplicates) fall back to exact scans;")
	fmt.Println("original articles get sublinear LSH lookups — same index, per-query choice.")
}

// diversify greedily picks up to k ids from candidates maximizing the
// minimum pairwise cosine distance (Gonzalez's farthest-point heuristic, a
// 2-approximation for max-min diversity).
func diversify(corpus []hybridlsh.Sparse, candidates []int32, k int) []int32 {
	if len(candidates) == 0 {
		return nil
	}
	picks := []int32{candidates[0]}
	for len(picks) < k && len(picks) < len(candidates) {
		var best int32 = -1
		bestDist := -1.0
		for _, c := range candidates {
			if contains(picks, c) {
				continue
			}
			// distance to the closest already-picked article
			d := 2.0
			for _, p := range picks {
				if dd := distance.Cosine(corpus[c], corpus[p]); dd < d {
					d = dd
				}
			}
			if d > bestDist {
				bestDist = d
				best = c
			}
		}
		if best < 0 {
			break
		}
		picks = append(picks, best)
	}
	return picks
}

func minPairwise(corpus []hybridlsh.Sparse, ids []int32) float64 {
	min := 2.0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if d := distance.Cosine(corpus[ids[i]], corpus[ids[j]]); d < min {
				min = d
			}
		}
	}
	return min
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
