package bench

import (
	"os"
	"path/filepath"

	hybridlsh "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/server"
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

// corelShards is the shard count of the sharded Corel fixture.
const corelShards = 4

// corelSharded builds the sharded Corel fixture the recal and serve
// experiments share.
func corelSharded(cfg Config, data []vector.Dense, r float64, cost core.CostModel) (*hybridlsh.Sharded[vector.Dense], error) {
	return hybridlsh.NewSharded(hybridlsh.L2, data, r, cfg.options(cost, cfg.Seed+3, hybridlsh.WithShards(corelShards))...)
}

// corelNode boots the node that ships over the fixture: sh is written
// out as a snapshot and loaded exactly as hybridserve -snapshot does.
func corelNode(ncfg server.Config, sh *hybridlsh.Sharded[vector.Dense]) (*server.Server, error) {
	dir, err := os.MkdirTemp("", "hybridbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // the node holds the index in memory once booted
	ncfg.Snapshot = filepath.Join(dir, "corel.snap")
	if _, err := persist.WriteFileAtomic(ncfg.Snapshot, sh.WriteTo); err != nil {
		return nil, err
	}
	return server.New(ncfg)
}
