package main

import (
	"flag"
	"fmt"
	"io"
	"reflect"
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
