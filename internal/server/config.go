// Package server is the hybridserve node as a library: one sharded
// hybrid-LSH index behind the HTTP JSON API, with its replication role,
// WAL durability, promotion and telemetry. cmd/hybridserve is flag
// registration over Config plus a listener (its package comment is the
// endpoint and flag reference); the chaos harness and hybridbench's
// replica and serve experiments boot the same node in-process. One file
// per concern: config, typed engine, replication role, HTTP, stats.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	hybridlsh "repro"
	"repro/internal/covering"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/shard"
)

// Config is the node's whole configuration: one field per hybridserve
// flag (named in the trailing comment; help strings live with the flag
// registration in cmd/hybridserve) plus the follower's HTTP client.
type Config struct {
	Addr          string  // -addr
	Metric        string  // -metric
	Dim           int     // -dim
	N             int     // -n
	Shards        int     // -shards
	Radius        float64 // -r
	Seed          uint64  // -seed
	Window        int     // -latwindow
	Snapshot      string  // -snapshot
	MaxBody       int64   // -maxbody
	CompactThresh float64 // -compactthreshold
	Probes        int     // -probes
	Tables        int     // -tables
	CoverRadius   int     // -radius
	TraceSample   int     // -trace-sample
	PprofAddr     string  // -pprof
	Recalibrate   string  // -recalibrate
	CacheSize     int     // -cache
	Quant         string  // -quant
	Hydrate       string  // -hydrate
	LogCap        int     // -deltalog
	WALDir        string  // -waldir
	Fsync         string  // -fsync
	WALSeg        int64   // -walseg

	// Client is the one non-flag input: the HTTP client a -hydrate URL
	// follower fetches its snapshot and delta frames with (nil means
	// http.DefaultClient). The chaos harness injects tail faults here.
	Client *http.Client
}

// DefaultConfig returns the flag defaults.
func DefaultConfig() Config {
	return Config{
		Addr:          ":8080",
		Metric:        "l2",
		Dim:           16,
		N:             20000,
		Shards:        8,
		Radius:        0.4,
		Seed:          1,
		Window:        4096,
		MaxBody:       8 << 20,
		CompactThresh: shard.DefaultCompactionThreshold,
		Recalibrate:   "auto",
		Quant:         "off",
		Fsync:         replica.FsyncAlways,
	}
}

// followsURL reports whether -hydrate names a writer to tail (as opposed
// to a snapshot file to pin).
func (c Config) followsURL() bool {
	return strings.HasPrefix(c.Hydrate, "http://") || strings.HasPrefix(c.Hydrate, "https://")
}

// Validate rejects out-of-range values and contradictory combinations
// before anything is built or opened.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shards = %d, want >= 1", c.Shards)
	}
	if c.Dim < 1 {
		return fmt.Errorf("dim = %d, want >= 1", c.Dim)
	}
	if c.N < c.Shards {
		return fmt.Errorf("n = %d smaller than %d shards", c.N, c.Shards)
	}
	if c.Window < 1 {
		return fmt.Errorf("latwindow = %d, want >= 1", c.Window)
	}
	if c.MaxBody < 1 {
		return fmt.Errorf("maxbody = %d, want >= 1", c.MaxBody)
	}
	if c.CompactThresh <= 0 {
		return fmt.Errorf("compactthreshold = %v, want > 0 (>= 1 disables)", c.CompactThresh)
	}
	if c.Metric != "l2" && c.Metric != "hamming" {
		return errUnknownMetric(c.Metric)
	}
	if c.Probes < 0 {
		return fmt.Errorf("probes = %d, want >= 0", c.Probes)
	}
	if c.Probes > 0 && c.Metric != "l2" {
		return fmt.Errorf("multi-probe serving (-probes) supports -metric l2 only, got %q", c.Metric)
	}
	if c.Tables < 0 {
		return fmt.Errorf("tables = %d, want >= 0", c.Tables)
	}
	if c.CoverRadius < 0 || c.CoverRadius > covering.MaxRadius {
		return fmt.Errorf("radius = %d, want in [0, %d]", c.CoverRadius, covering.MaxRadius)
	}
	if c.CoverRadius > 0 && c.Metric != "hamming" {
		return fmt.Errorf("covering serving (-radius) supports -metric hamming only, got %q", c.Metric)
	}
	if c.CoverRadius > 0 && c.Probes > 0 {
		return errors.New("-radius (covering) and -probes (multi-probe) are mutually exclusive serving modes")
	}
	if c.CoverRadius > 0 && c.CoverRadius >= c.Dim {
		return fmt.Errorf("radius = %d, want < dim %d", c.CoverRadius, c.Dim)
	}
	if c.TraceSample < 0 {
		return fmt.Errorf("trace-sample = %d, want >= 0 (0 disables)", c.TraceSample)
	}
	if c.Recalibrate != "off" && c.Recalibrate != "auto" {
		return fmt.Errorf("recalibrate = %q, want off or auto", c.Recalibrate)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("cache = %d, want >= 0 (0 disables)", c.CacheSize)
	}
	quant, err := hybridlsh.ParseQuantMode(c.Quant)
	if err != nil {
		return fmt.Errorf("quant = %q, want off or sq8", c.Quant)
	}
	if quant != hybridlsh.QuantOff && c.Metric != "l2" {
		return fmt.Errorf("quant = %q applies to -metric l2 only", c.Quant)
	}
	if c.LogCap < 0 {
		return fmt.Errorf("deltalog = %d, want >= 0 (0 = default %d)", c.LogCap, replica.DefaultLogCap)
	}
	switch c.Fsync {
	case replica.FsyncAlways, replica.FsyncInterval, replica.FsyncOff:
	default:
		return fmt.Errorf("fsync = %q, want %s, %s or %s", c.Fsync, replica.FsyncAlways, replica.FsyncInterval, replica.FsyncOff)
	}
	if c.WALSeg < 0 {
		return fmt.Errorf("walseg = %d, want >= 0 (0 = default %d)", c.WALSeg, int64(replica.DefaultSegmentBytes))
	}
	if c.Hydrate == "" {
		return nil
	}
	if c.Snapshot != "" {
		return errors.New("-hydrate and -snapshot are mutually exclusive: replicas never write snapshots")
	}
	if c.WALDir != "" && !c.followsURL() {
		return errors.New("-waldir is unsupported on a static (-hydrate path) replica: it never writes and cannot be promoted")
	}
	if c.followsURL() && c.CacheSize > 0 {
		return errors.New("-cache is unsupported with -hydrate URL: re-hydration swaps the store out from under the cache")
	}
	return nil
}

// adopt makes a decoded snapshot authoritative for dim, radius, shard
// count and serving mode, so request parsing and /stats reflect the
// loaded index. Unset mode flags demand nothing — the snapshot decides —
// but a set one the file contradicts (-probes over a snapshot that is not
// multi-probe, -radius over one that is not covering) is refused with the
// typed persist mode error rather than silently served in another mode.
func (c *Config) adopt(m persist.Meta) error {
	if c.Probes > 0 || c.CoverRadius > 0 {
		if err := m.RequireMode(c.Probes > 0, c.CoverRadius > 0); err != nil {
			return err
		}
	}
	c.Dim, c.Radius, c.Shards = m.Dim, m.Radius, m.Shards
	c.Probes, c.CoverRadius = m.Probes, m.CoverRadius
	return nil
}
