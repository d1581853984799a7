package bench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestServeExperiment(t *testing.T) {
	cfg := DefaultConfig(0.02)
	cfg.Queries = 30
	cfg.Runs = 1
	res, err := ServeExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != cfg.Queries || res.Runs != 1 || res.Shards != 4 {
		t.Fatalf("shape mismatch: %+v", res)
	}
	if res.BareP50US <= 0 || res.InstrP50US <= 0 || res.BareP95US <= 0 || res.InstrP95US <= 0 {
		t.Fatalf("degenerate timings: %+v", res)
	}
	if res.ScrapeUS <= 0 || res.ScrapeBytes <= 0 {
		t.Fatalf("degenerate scrape measurement: %+v", res)
	}
	// The <5% acceptance target is asserted by the full-scale bench run;
	// CI timing at tiny scale is too noisy for a hard threshold here. A
	// sanity ceiling still catches an accidental O(shards·window) step
	// slipping onto the record path.
	if res.OverheadP50Pct > 100 {
		t.Errorf("instrumentation more than doubled p50: %+v", res)
	}
	t.Logf("bare p50 %.1fµs, instrumented p50 %.1fµs, overhead %+.2f%%, scrape %.1fµs/%dB",
		res.BareP50US, res.InstrP50US, res.OverheadP50Pct, res.ScrapeUS, res.ScrapeBytes)

	var out bytes.Buffer
	PrintServe(&out, res)
	if !strings.Contains(out.String(), "overhead p50") {
		t.Errorf("PrintServe output missing summary: %q", out.String())
	}

	rep := NewJSONReport(cfg)
	rep.Serve = res
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Meta  RunMeta `json:"meta"`
		Serve *struct {
			OverheadP50Pct *float64 `json:"overhead_p50_pct"`
		} `json:"serve"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Serve == nil || decoded.Serve.OverheadP50Pct == nil {
		t.Fatalf("report JSON missing serve.overhead_p50_pct: %s", buf.String())
	}
	if decoded.Meta.GoVersion != runtime.Version() || decoded.Meta.NumCPU < 1 {
		t.Fatalf("report meta not stamped: %+v", decoded.Meta)
	}
}
