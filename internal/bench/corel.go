package bench

import (
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vector"
)

// corelWorkload is the Corel-like L2 workload (the paper's Figure-2d
// dataset) at its middle radius, which every serving-side experiment
// runs on.
func corelWorkload(cfg Config) (data, queries []vector.Dense, r float64, err error) {
	ds := dataset.CorelLike(cfg.Scale, cfg.Seed)
	data, queries, err = splitQueries(cfg, ds.Points)
	return data, queries, ds.Meta.PaperRadii[len(ds.Meta.PaperRadii)/2], err
}

// indexConfig is the index configuration every experiment shares: the
// run's δ, L and m around an experiment's family, distance, radius, k
// (0 derives it from δ), cost model (zero keeps the index default) and
// construction seed.
func indexConfig[P any](cfg Config, family lsh.Family[P], dist distance.Func[P], r float64, k int,
	cost core.CostModel, seed uint64) core.Config[P] {
	return core.Config[P]{
		Family:       family,
		Distance:     dist,
		Radius:       r,
		Delta:        cfg.Delta,
		K:            k,
		L:            cfg.L,
		HLLRegisters: cfg.M,
		Cost:         cost,
		Seed:         seed,
	}
}

// The paper's Corel setting: Gaussian p-stable LSH with k = 7, w = 2r.
const corelK = 7

func corelFamily(r float64) lsh.Family[vector.Dense] {
	return lsh.NewPStableL2(dataset.CorelDim, 2*r)
}

func (cfg Config) corelConfig(r float64, cost core.CostModel, seed uint64) core.Config[vector.Dense] {
	return indexConfig(cfg, corelFamily(r), distance.L2, r, corelK, cost, seed)
}

// corelShards is the shard count of the sharded Corel fixture.
const corelShards = 4

// corelSharded builds the sharded Corel fixture the recal and serve
// experiments share.
func corelSharded(cfg Config, data []vector.Dense, r float64, cost core.CostModel) (*shard.Sharded[vector.Dense], error) {
	return shard.New(data, corelShards, cfg.Seed+3, func(pts []vector.Dense, seed uint64) (core.Store[vector.Dense], error) {
		return core.NewIndex(pts, cfg.corelConfig(r, cost, seed))
	})
}

// corelNode boots the node that ships over the fixture: sh is written
// out as a snapshot and loaded exactly as hybridserve -snapshot does.
func corelNode(ncfg server.Config, sh *shard.Sharded[vector.Dense]) (*server.Server, error) {
	dir, err := os.MkdirTemp("", "hybridbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // the node holds the index in memory once booted
	ncfg.Snapshot = filepath.Join(dir, "corel.snap")
	if _, err := persist.WriteFileAtomic(ncfg.Snapshot, func(w io.Writer) (int64, error) {
		return persist.WriteSharded(w, persist.MetricL2, sh)
	}); err != nil {
		return nil, err
	}
	return server.New(ncfg)
}
