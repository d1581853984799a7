package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecalExperiment(t *testing.T) {
	cfg := DefaultConfig(0.02)
	cfg.Queries = 30
	res, err := RecalExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != cfg.Queries || res.Shards != 4 || res.Answers != cfg.Queries*res.Shards {
		t.Fatalf("shape mismatch: %+v", res)
	}
	if res.SkewFactor < recalSkews[len(recalSkews)-1] {
		t.Fatalf("skew factor %v not from %v", res.SkewFactor, recalSkews)
	}
	if res.FreshBetaOverAlpha <= 0 || res.SkewedBetaOverAlpha <= 0 || res.RefitBetaOverAlpha <= 0 {
		t.Fatalf("degenerate model ratios: %+v", res)
	}
	// The experiment's acceptance invariant, same as the CI gate: at
	// least one refit adopted, and agreement with the fresh model's
	// decisions must not get worse.
	if res.Refits < 1 {
		t.Fatalf("no refit adopted: %+v", res)
	}
	if res.MatchAfter < res.MatchBefore {
		t.Fatalf("refits lost decision agreement: before %.2f, after %.2f", res.MatchBefore, res.MatchAfter)
	}
	if res.MatchBefore < 0 || res.MatchBefore > 1 || res.MatchAfter < 0 || res.MatchAfter > 1 {
		t.Fatalf("match fractions outside [0,1]: %+v", res)
	}

	var out bytes.Buffer
	PrintRecal(&out, res)
	if !strings.Contains(out.String(), "refitted") {
		t.Errorf("PrintRecal output missing refitted row: %q", out.String())
	}

	rep := NewJSONReport(cfg)
	rep.Recal = res
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Recal *struct {
			Refits      *int64   `json:"refits"`
			MatchBefore *float64 `json:"match_before"`
			MatchAfter  *float64 `json:"match_after"`
		} `json:"recal"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Recal == nil || decoded.Recal.Refits == nil ||
		decoded.Recal.MatchBefore == nil || decoded.Recal.MatchAfter == nil {
		t.Fatalf("report JSON missing recal gate fields: %s", buf.String())
	}
}
