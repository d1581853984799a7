package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/server"
)

// TestFlagsLandInConfig sets every registered flag to a non-default
// value and checks it arrives in the server.Config field it names — and
// that the table, the registered flag set and the Config fields cover
// each other, so a new flag or field cannot be left unwired.
func TestFlagsLandInConfig(t *testing.T) {
	table := []struct{ flag, value, field string }{
		{"addr", "127.0.0.1:9", "Addr"},
		{"metric", "hamming", "Metric"},
		{"dim", "33", "Dim"},
		{"n", "777", "N"},
		{"shards", "3", "Shards"},
		{"r", "0.25", "Radius"},
		{"seed", "99", "Seed"},
		{"latwindow", "17", "Window"},
		{"snapshot", "snap.bin", "Snapshot"},
		{"maxbody", "4096", "MaxBody"},
		{"compactthreshold", "0.5", "CompactThresh"},
		{"probes", "6", "Probes"},
		{"tables", "12", "Tables"},
		{"radius", "2", "CoverRadius"},
		{"trace-sample", "5", "TraceSample"},
		{"pprof", "127.0.0.1:6060", "PprofAddr"},
		{"recalibrate", "off", "Recalibrate"},
		{"cache", "64", "CacheSize"},
		{"quant", "sq8", "Quant"},
		{"hydrate", "http://writer:8080", "Hydrate"},
		{"deltalog", "128", "LogCap"},
		{"waldir", "wal", "WALDir"},
		{"fsync", "interval", "Fsync"},
		{"walseg", "1048576", "WALSeg"},
	}
	cfg := server.DefaultConfig()
	fs := flag.NewFlagSet("hybridserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, &cfg)

	var args []string
	named := map[string]bool{}
	fields := map[string]bool{}
	for _, tc := range table {
		args = append(args, "-"+tc.flag, tc.value)
		named[tc.flag], fields[tc.field] = true, true
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	got := reflect.ValueOf(cfg)
	for _, tc := range table {
		if v := fmt.Sprint(got.FieldByName(tc.field).Interface()); v != tc.value {
			t.Errorf("-%s %s landed as Config.%s = %s", tc.flag, tc.value, tc.field, v)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !named[f.Name] {
			t.Errorf("flag -%s is registered but not covered by the table", f.Name)
		}
	})
	for i := 0; i < got.NumField(); i++ {
		// Client is the one non-flag input (the follower's HTTP client).
		if name := got.Type().Field(i).Name; name != "Client" && !fields[name] {
			t.Errorf("Config.%s has no flag", name)
		}
	}
}

// TestSizeGC holds the GC policy to its contract: with neither GOGC nor
// GOMEMLIMIT in the environment, the soft memory limit is the index plus
// the 32 MiB headroom; with either set, the runtime's memory limit and
// GC percent are left as they are.
func TestSizeGC(t *testing.T) {
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(-1))
	percent := func() int { p := debug.SetGCPercent(100); debug.SetGCPercent(p); return p }
	gcPercent := percent()
	const untouched = 1 << 40
	for _, tc := range []struct {
		gogc, gomemlimit string
		index, want      int64 // the limit after sizeGC
	}{
		{"", "", 64 << 20, 96 << 20},
		{"", "", 0, 32 << 20},
		{"100", "", 64 << 20, untouched},
		{"", "1GiB", 64 << 20, untouched},
		{"50", "1GiB", 1 << 30, untouched},
	} {
		t.Setenv("GOGC", tc.gogc)
		t.Setenv("GOMEMLIMIT", tc.gomemlimit)
		debug.SetMemoryLimit(untouched)
		got, ok := sizeGC(tc.index)
		if l := debug.SetMemoryLimit(-1); l != tc.want || ok != (tc.want != untouched) || ok && got != l {
			t.Errorf("GOGC=%q GOMEMLIMIT=%q index %d: sizeGC = %d, %v; runtime limit %d, want %d",
				tc.gogc, tc.gomemlimit, tc.index, got, ok, l, tc.want)
		}
		if p := percent(); p != gcPercent {
			t.Errorf("GOGC=%q GOMEMLIMIT=%q: GC percent moved from %d to %d", tc.gogc, tc.gomemlimit, gcPercent, p)
		}
	}
}
