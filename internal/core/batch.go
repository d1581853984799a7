package core

import (
	"runtime"
	"slices"
	"sync"
)

// BatchResult is one query's outcome within QueryBatch.
type BatchResult struct {
	// IDs are the reported point ids (distinct, unordered).
	IDs []int32
	// Stats is the per-query breakdown.
	Stats QueryStats
}

// QueryBatch answers many queries concurrently: it splits them into up
// to workers blocks (0 means GOMAXPROCS) of consecutive queries and
// answers each block with QueryBlock on its own goroutine. Results are
// positionally aligned with queries. The index is read-only during
// queries, so any number of concurrent batches is safe. A query of the
// wrong dimension panics on the caller's goroutine, before any block
// starts.
func (ix *Index[P]) QueryBatch(queries []P, workers int) []BatchResult {
	if len(queries) == 0 {
		return nil
	}
	must(CheckDims(ix.dim, queries, "query"))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]BatchResult, len(queries))
	blocks := min(workers, len(queries))
	var wg sync.WaitGroup
	for b := range blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := b*len(queries)/blocks, (b+1)*len(queries)/blocks
			// The zero options cannot fail, and the dimensions are checked.
			_ = ix.QueryBlock(queries[lo:hi], QueryOpts{}, func(i int, ids []int32, stats QueryStats) {
				results[lo+i] = BatchResult{IDs: slices.Clone(ids), Stats: stats}
			})
		}()
	}
	wg.Wait()
	return results
}
