package hybridlsh_test

import (
	"errors"
	"fmt"

	hybridlsh "repro"
)

// ExampleNew builds an L2 index over a tiny point set and reports the
// r-near neighbors of a query.
func ExampleNew() {
	points := []hybridlsh.Dense{
		{0, 0}, {0.1, 0}, {0, 0.1}, // a tight corner cluster
		{5, 5}, {9, 9}, // far away
	}
	index, err := hybridlsh.New(hybridlsh.L2, points, 0.5, hybridlsh.WithSeed(1))
	if err != nil {
		panic(err)
	}
	ids, _ := index.Query(hybridlsh.Dense{0.05, 0.05})
	fmt.Println(len(ids), "neighbors within 0.5")
	// Output: 3 neighbors within 0.5
}

// ExampleNew_hamming indexes bit-packed binary fingerprints: the metric
// fixes the point type, so Hamming takes Binary.
func ExampleNew_hamming() {
	fingerprints := make([]hybridlsh.Binary, 4)
	for i := range fingerprints {
		fingerprints[i] = hybridlsh.NewBinaryVector(64)
	}
	fingerprints[1].SetBit(3, true) // distance 1 from #0
	fingerprints[2].SetBit(3, true) // same as #1
	for b := 0; b < 40; b += 2 {
		fingerprints[3].SetBit(b, true) // distance 20 from #0
	}
	index, err := hybridlsh.New(hybridlsh.Hamming, fingerprints, 2, hybridlsh.WithSeed(1))
	if err != nil {
		panic(err)
	}
	ids, _ := index.Query(fingerprints[0])
	fmt.Println(len(ids), "fingerprints within Hamming distance 2")
	// Output: 3 fingerprints within Hamming distance 2
}

// ExampleCostModel shows the decision rule of Algorithm 2 directly.
func ExampleCostModel() {
	cm := hybridlsh.CostModel{Alpha: 1, Beta: 10} // the paper's Webspam ratio
	n := 350000
	// An easy query: few collisions, few candidates.
	fmt.Println("easy query prefers LSH:  ", cm.LSHCost(5000, 900) < cm.LinearCost(n))
	// A hard query in a giant near-duplicate cluster.
	fmt.Println("hard query prefers linear:", cm.LSHCost(8000000, 170000) >= cm.LinearCost(n))
	// Output:
	// easy query prefers LSH:   true
	// hard query prefers linear: true
}

// ExampleAdvise tunes (k, L) automatically for a Hamming workload.
func ExampleAdvise() {
	best, _, err := hybridlsh.Advise(hybridlsh.AdvisorInput{
		N:           100000,
		P1:          hybridlsh.P1Hamming(64, 8),  // neighbors at distance 8
		PBackground: hybridlsh.P1Hamming(64, 30), // typical pairs at 30
		Delta:       0.1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("miss probability within budget:", best.MissProb <= 0.2)
	fmt.Println("k and L positive:", best.K >= 1 && best.L >= 1)
	// Output:
	// miss probability within budget: true
	// k and L positive: true
}

// ExampleLadderOf builds a radius ladder whose rungs differ in more than
// the radius (here L1 with fewer tables on the wider rungs, whose
// collision probability is higher); NewLadder is LadderOf with every
// rung built by New under the same options.
func ExampleLadderOf() {
	points := []hybridlsh.Dense{{0, 0}, {0.5, 0}, {2, 0}, {9, 9}}
	ladder, err := hybridlsh.LadderOf(0.5, 4.0, 2.0, func(r float64) (*hybridlsh.Index[hybridlsh.Dense], error) {
		return hybridlsh.New(hybridlsh.L1, points, r,
			hybridlsh.WithSeed(1), hybridlsh.WithTables(int(40/r)))
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("rungs:", ladder.Rungs())
	ids, _, err := ladder.Query(hybridlsh.Dense{0, 0}, 0.6) // routed to rung 1, filtered to 0.6
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ids), "neighbors within L1 distance 0.6")
	// Output:
	// rungs: [0.5 1 2 4]
	// 2 neighbors within L1 distance 0.6
}

// ExampleNewSharded_queryBatch answers many queries in parallel
// against a sharded index: each query fans out across the shards, and
// the batch runs several queries concurrently on top.
func ExampleNewSharded_queryBatch() {
	points := []hybridlsh.Dense{
		{0, 0}, {0.1, 0}, {0, 0.1}, // a tight corner cluster
		{5, 5}, {5.1, 5}, // a second cluster
		{9, 9}, // isolated
	}
	index, err := hybridlsh.NewSharded(hybridlsh.L2, points, 0.5,
		hybridlsh.WithSeed(1), hybridlsh.WithShards(2))
	if err != nil {
		panic(err)
	}
	queries := []hybridlsh.Dense{{0.05, 0.05}, {5.05, 5}}
	for i, res := range index.QueryBatch(queries, 0) { // 0 = default workers
		fmt.Printf("query %d: %d neighbors\n", i, len(res.IDs))
	}
	// Output:
	// query 0: 3 neighbors
	// query 1: 2 neighbors
}

// ExampleWithProbes trades tables for probes: 4 tables probing 9 buckets
// each (home + 8) instead of the classic 50 tables probing one — the
// memory-constrained serving mode.
func ExampleWithProbes() {
	points := []hybridlsh.Dense{
		{0, 0}, {0.1, 0}, {0, 0.1}, // a tight corner cluster
		{5, 5}, {9, 9}, // far away
	}
	index, err := hybridlsh.New(hybridlsh.L2, points, 0.5,
		hybridlsh.WithSeed(1), hybridlsh.WithTables(4), hybridlsh.WithProbes(8))
	if err != nil {
		panic(err)
	}
	ids, _ := index.Query(hybridlsh.Dense{0.05, 0.05})
	fmt.Printf("%d neighbors from %d tables × %d probed buckets\n",
		len(ids), index.L(), 1+index.Defaults().Probes.N)
	// Output: 3 neighbors from 4 tables × 9 probed buckets
}

// ExampleQueryOpts shows the one options-taking query every index
// shares: a per-call override is honoured by the index whose mode
// supports it and refused, with a typed error, by the others.
func ExampleQueryOpts() {
	points := []hybridlsh.Dense{
		{0, 0}, {0.1, 0}, {0, 0.1}, // a tight corner cluster
		{5, 5}, {9, 9}, // far away
	}
	q := hybridlsh.Dense{0.05, 0.05}
	wide := hybridlsh.QueryOpts{Probes: hybridlsh.Some(30)}

	probing, err := hybridlsh.New(hybridlsh.L2, points, 0.5,
		hybridlsh.WithSeed(1), hybridlsh.WithTables(4), hybridlsh.WithProbes(10))
	if err != nil {
		panic(err)
	}
	ids, _, err := probing.QueryWith(q, wide)
	fmt.Println(len(ids), "neighbors at T=30, err:", err)

	classic, err := hybridlsh.New(hybridlsh.L2, points, 0.5, hybridlsh.WithSeed(1))
	if err != nil {
		panic(err)
	}
	_, _, err = classic.QueryWith(q, wide)
	fmt.Println("classic index refuses probes:", errors.Is(err, hybridlsh.ErrUnsupportedOption))
	// Output:
	// 3 neighbors at T=30, err: <nil>
	// classic index refuses probes: true
}

// ExampleLadder serves arbitrary radii from one structure.
func ExampleLadder() {
	points := []hybridlsh.Dense{{0, 0}, {0.3, 0}, {0.9, 0}, {8, 8}}
	ladder, err := hybridlsh.NewLadder(hybridlsh.L2, points, 0.25, 1.0, 2.0, hybridlsh.WithSeed(1))
	if err != nil {
		panic(err)
	}
	q := hybridlsh.Dense{0, 0}
	for _, r := range []float64{0.25, 0.5, 1.0} {
		ids, _, err := ladder.Query(q, r)
		if err != nil {
			panic(err)
		}
		fmt.Printf("r=%.2f: %d neighbors\n", r, len(ids))
	}
	// Output:
	// r=0.25: 1 neighbors
	// r=0.50: 2 neighbors
	// r=1.00: 3 neighbors
}
