package main

import (
	"context"

	hybridlsh "repro"
)

// Every workload runs in this shape (see README.md): two shards, two
// connections (both closed-loop readers, or one reader and the open-loop
// mutation stream), and — pinned like the cost model — the seed
// that draws the dataset (the mixture's cluster centres, spreads and
// sizes, its points, and which of them are held out as queries) and the
// seed that draws the hash functions. Both are part of the workload
// definition, not inputs. Letting the mixture or the hash functions
// follow -seed moved core.linear_share on Corel-like data between 0.00
// and 0.34 and the collision count on MNIST-like data by 20 %, i.e. it
// swapped the regime a workload exists to hold; letting the held-out
// split follow it moved recall by up to 0.5 % between seeds, more than
// the 0.2 % recall may drop before it counts as a regression. The -seed
// argument draws the traffic: the order requests are sent in (and so
// which two are in flight together) and the mutation stream. Recall,
// snapshot size, answers_digest and every count of the traced run are
// therefore the same on every seed.
const (
	shards    = 2
	clients   = 2
	shapeSeed = 1
	hashSeed  = 1
)

// runSeconds is the measured length of a run, the contract's
// run_seconds: the -seconds default, what baseline.json and BUDGET.md
// are recorded at, and the only length whose numbers compare with them.
const runSeconds = 15

// workload is one traffic mix.
type workload struct {
	Name string
	Why  string
	// Radius is the reporting radius the index is built for.
	Radius float64
	// Queries is the held-out query count; Batch the points per /batch
	// request (0 sends single /query requests).
	Queries int
	Batch   int
	// Cost is the pinned cost model. Only Beta/Alpha matters to
	// Algorithm 2; it is stored in the snapshot and -recalibrate off
	// keeps the server from refitting it.
	Cost hybridlsh.CostModel
	// ReadWrite adds a WAL-backed writer, a tailing follower behind the
	// router and an open-loop mutation stream.
	ReadWrite bool
	// LibQueries is how many queries the traced run replays in-process;
	// a fixed count, so the count metrics repeat exactly.
	LibQueries int

	run func(ctx context.Context, env *env, w *workload, o runOpts) (*runResult, error)
}

var workloads = []*workload{
	{
		Name: "corel-report",
		Why: "Corel-like d=32 L2 at r=0.5: ~15k ids per answer and a 0.36 linear share, " +
			"so verify/scan, dedup, shard merge and JSON encode + router copy do the work; hashing does none",
		Radius: 0.5, Queries: 1000, LibQueries: 250,
		Cost: hybridlsh.CostModel{Alpha: 1, Beta: 10},
		run:  runner(denseSpace, corelData),
	},
	{
		Name: "dense128-batch",
		Why: "50k-point d=128 mixture at r=0.3 in /batch requests of 64: selective queries, " +
			"so the 350 projections x 128 dims per shard and JSON decode of 8192 floats dominate",
		Radius: 0.3, Queries: 2048, Batch: 64, LibQueries: 1024,
		Cost: hybridlsh.CostModel{Alpha: 1, Beta: 10},
		run:  runner(denseSpace, dense128Data),
	},
	{
		Name: "mnist-collide",
		Why: "MNIST-like 64-bit Hamming at r=16: hashing and popcount are nearly free, ~40k colliding ids " +
			"over 100 map lookups and an HLL merge on half the decisions dominate",
		Radius: 16, Queries: 1000, LibQueries: 500,
		// The paper's MNIST choice; at seed 1 it splits the decisions
		// 0.47 linear / 0.53 LSH with the sketches merged on 55 %.
		Cost: hybridlsh.CostModel{Alpha: 1, Beta: 1},
		run:  runner(binarySpace, mnistData),
	},
	{
		Name: "corel-readwrite",
		Why: "Corel-like at r=0.35 read via router and follower while 40 ops/s of 32-point appends and deletes " +
			"hit a WAL-backed writer (fsync always, compaction at 5 %): write locks, journal, replay, compaction",
		Radius: 0.35, Queries: 1000, LibQueries: 250, ReadWrite: true,
		Cost: hybridlsh.CostModel{Alpha: 1, Beta: 10},
		run:  runner(denseSpace, corelData),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Mutation stream of the read-write workload: ops alternate append and
// delete, so live n stays constant.
const (
	mutateOpsPerSec  = 40
	mutateBatch      = 32
	compactThreshold = "0.05"
	// beaconEvery makes every 4th append carry a beacon: a point far
	// from the data whose id the mutator then polls the router for.
	beaconEvery = 4
)
