package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunMetaIdenticalAcrossReports is the shape guarantee CI relies
// on: one invocation stamps its RunMeta exactly once, so every
// BENCH_*.json it writes carries a byte-identical meta block no matter
// which experiments each report recorded. AddQuant used to mutate
// Meta.Quant after the fact, which made the quant report's meta
// disagree with every sibling report of the same run.
func TestRunMetaIdenticalAcrossReports(t *testing.T) {
	cfg := DefaultConfig(0.01)
	meta := CollectRunMeta("sq8")

	reports := []*JSONReport{
		NewJSONReport(cfg, "sq8"),
		NewJSONReport(cfg, "sq8"),
		NewJSONReport(cfg, "sq8"),
	}
	// Feed each report a different experiment mix — the meta must not
	// care. In particular the quant result's recorded mode must not leak
	// back into the run meta.
	reports[0].Table1 = []Table1Row{{Dataset: "x"}}
	reports[1].Quant = &QuantResult{Mode: "off"}
	reports[2].Figures = []JSONFigure{{ID: "fig2a", Calibrated: true, Fig2Result: &Fig2Result{}}}
	reports[2].Quant = &QuantResult{Mode: "flat-vs-sq8-something-else"}

	var metas [][]byte
	for i, r := range reports {
		if r.Meta != meta {
			t.Errorf("report %d meta = %+v, want the invocation stamp %+v", i, r.Meta, meta)
		}
		b, err := json.Marshal(r.Meta)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, b)
	}
	for i := 1; i < len(metas); i++ {
		if !bytes.Equal(metas[i], metas[0]) {
			t.Errorf("report %d meta %s differs from report 0 meta %s", i, metas[i], metas[0])
		}
	}

	// The stamp survives a full write/read round trip.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, reports[1]); err != nil {
		t.Fatal(err)
	}
	var got JSONReport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("round-tripped meta = %+v, want %+v", got.Meta, meta)
	}
	if got.Quant == nil || got.Quant.Mode != "off" {
		t.Errorf("quant result lost in round trip: %+v", got.Quant)
	}
}
