// Near-duplicate document detection — the paper's first motivating use
// case (Henzinger, SIGIR 2006: "finding near-duplicate web pages").
//
// A crawl of a spammy corner of the web contains clusters of pages
// generated from shared templates. Each page is shingled into a set of
// token 4-grams; Jaccard distance over shingle sets measures duplication.
// A hybrid MinHash index reports, for every page, all pages within Jaccard
// distance 0.3 — and because template clusters are huge, exactly the
// queries inside them would melt a classic LSH index with duplicate
// removal work. Watch the strategy column.
//
//	go run ./examples/neardup
package main

import (
	"fmt"
	"math/rand"
	"strings"

	hybridlsh "repro"
)

const (
	vocabSize    = 4096 // hashed shingle space
	numPages     = 12000
	numTemplate  = 3    // template clusters
	templateSize = 3000 // pages per template: 75% of the crawl is duplicated
)

func main() {
	rnd := rand.New(rand.NewSource(7))

	pages, labels := makeCorpus(rnd)
	fmt.Printf("corpus: %d pages, %d shingle dimensions\n", len(pages), vocabSize)

	index, err := hybridlsh.New(hybridlsh.Jaccard, pages, 0.3, hybridlsh.WithSeed(11))
	if err != nil {
		panic(err)
	}
	fmt.Printf("MinHash hybrid index: L=%d, k=%d\n\n", index.L(), index.K())

	// Probe one page per template cluster plus a few organic pages.
	probes := []int{0, 3000, 6000, 9000, 9001, 9002}
	fmt.Println("probe page   kind          dups  strategy   time")
	for _, pi := range probes {
		ids, stats := index.Query(pages[pi])
		fmt.Printf("%10d   %-12s %5d  %-8s %v\n",
			pi, labels[pi], len(ids), stats.Strategy, stats.TotalTime())
	}

	// Full dedup sweep over a sample, tallying strategies: template pages
	// are "hard" queries (huge output), organic pages are "easy".
	var lshCalls, linCalls, dupPairs int
	for pi := 0; pi < len(pages); pi += 40 {
		ids, stats := index.Query(pages[pi])
		dupPairs += len(ids) - 1 // excluding self
		if stats.Strategy == hybridlsh.StrategyLinear {
			linCalls++
		} else {
			lshCalls++
		}
	}
	fmt.Printf("\nsweep over %d probes: %d LSH searches, %d linear fallbacks, %d near-duplicate pairs\n",
		lshCalls+linCalls, lshCalls, linCalls, dupPairs)
	fmt.Println(strings.Repeat("-", 60))
	fmt.Println("template queries fall back to exact scans; organic pages keep sublinear LSH time.")
}

// makeCorpus builds template clusters of near-identical shingle sets plus
// organic long-tail pages.
func makeCorpus(rnd *rand.Rand) ([]hybridlsh.Binary, []string) {
	pages := make([]hybridlsh.Binary, 0, numPages)
	labels := make([]string, 0, numPages)

	for t := 0; t < numTemplate; t++ {
		proto := randomShingleSet(rnd, 90)
		for i := 0; i < templateSize; i++ {
			page := proto.Clone()
			// Tiny per-page edits (a date stamp, a counter): the pages
			// are true near-duplicates.
			for e := 0; e < 2; e++ {
				page.FlipBit(rnd.Intn(vocabSize))
			}
			pages = append(pages, page)
			labels = append(labels, fmt.Sprintf("template-%d", t))
		}
	}
	// Organic pages: unrelated shingle sets.
	for len(pages) < numPages {
		pages = append(pages, randomShingleSet(rnd, 60+rnd.Intn(60)))
		labels = append(labels, "organic")
	}
	return pages, labels
}

func randomShingleSet(rnd *rand.Rand, size int) hybridlsh.Binary {
	s := hybridlsh.NewBinaryVector(vocabSize)
	for i := 0; i < size; i++ {
		s.SetBit(rnd.Intn(vocabSize), true)
	}
	return s
}
