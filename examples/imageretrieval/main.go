// Content-based image retrieval — the paper's third motivating use case
// (Yu et al., ICML 2014): report every catalog image whose color histogram
// lies within L2 radius r of the query image's histogram.
//
// The catalog is Corel-like: 32-bin color histograms from a Gaussian
// mixture whose clusters differ in tightness by an order of magnitude
// (stock photo series vs. one-off shots). Queries from tight series are
// "hard" (thousands of matches), landscape one-offs are "easy".
//
//	go run ./examples/imageretrieval
package main

import (
	"fmt"
	"sort"

	hybridlsh "repro"
	"repro/internal/dataset"
	"repro/internal/distance"
)

func main() {
	// Generate the Corel-like catalog at 1/4 of the paper's 68,040 images.
	ds := dataset.CorelLike(0.25, 21)
	catalog, queries := dataset.SplitQueries(ds.Points, 8, 22)
	fmt.Printf("catalog: %d images, %d-bin histograms\n", len(catalog), ds.Meta.Dim)

	const radius = 0.45 // the middle of the paper's Figure-2d sweep
	index, err := hybridlsh.New(hybridlsh.L2, catalog, radius, hybridlsh.WithSeed(23))
	if err != nil {
		panic(err)
	}
	fmt.Printf("L2 hybrid index: L=%d, k=%d (paper setting), w=2r\n\n", index.L(), index.K())

	for qi, q := range queries {
		ids, stats := index.Query(q)
		// Rank matches by distance for display — retrieval UIs show the
		// closest matches first; rNNR guarantees none within r are missed
		// (probability ≥ 0.9 per match, exact when linear path is used).
		type match struct {
			id int32
			d  float64
		}
		matches := make([]match, 0, len(ids))
		for _, id := range ids {
			matches = append(matches, match{id, distance.L2(catalog[id], q)})
		}
		sort.Slice(matches, func(i, j int) bool { return matches[i].d < matches[j].d })

		fmt.Printf("query %d: %5d matches within r=%.2f  strategy=%-6s  est=%6.0f  time=%v\n",
			qi, len(matches), radius, stats.Strategy, stats.EstCandidates, stats.TotalTime())
		for i, m := range matches {
			if i == 3 {
				fmt.Printf("           ... %d more\n", len(matches)-3)
				break
			}
			fmt.Printf("           #%d image %6d at distance %.4f\n", i+1, m.id, m.d)
		}
	}

	fmt.Println("\ndense-series queries trip the linear fallback; one-off queries stay sublinear.")
}
