package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestPersistExperiment(t *testing.T) {
	cfg := DefaultConfig(0.02)
	cfg.Queries = 30
	res, err := PersistExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("reloaded index diverged from the built one: %+v", res)
	}
	if res.QueriesChecked != cfg.Queries {
		t.Fatalf("checked %d queries, want %d", res.QueriesChecked, cfg.Queries)
	}
	if res.SnapshotBytes <= 0 || res.BuildSec <= 0 || res.LoadSec <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
	// Why a load beats a rebuild, asserted on a counter rather than on
	// two wall-clock samples: a build hashes every point into every
	// table, a load hashes nothing. The times are printed below.
	if res.LoadHashes != 0 {
		t.Errorf("the snapshot loads hashed %d points, want 0", res.LoadHashes)
	}
	t.Logf("build %.4fs, load %.4fs, speedup %.1f×, snapshot %d bytes",
		res.BuildSec, res.LoadSec, res.Speedup, res.SnapshotBytes)

	var out bytes.Buffer
	PrintPersist(&out, res)
	if !strings.Contains(out.String(), "faster than rebuild") {
		t.Errorf("PrintPersist output missing summary: %q", out.String())
	}

	rep := NewJSONReport(cfg, "off")
	rep.Persist = res
	var js bytes.Buffer
	if err := WriteJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"persist"`) {
		t.Errorf("JSON report missing persist section")
	}
}
