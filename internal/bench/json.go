package bench

import (
	"encoding/json"
	"io"
	"runtime"
)

// JSONSchema identifies the report layout; bump it when fields change
// incompatibly so downstream tooling can dispatch on it.
const JSONSchema = "hybridlsh-bench/v1"

// JSONFigure is one figure sweep in a report, keyed by the experiment
// id (fig2a…fig2d, fig3) so tooling can pair figures across commits —
// -exp all produces two webspam-like sweeps (fig2b and fig3) that are
// otherwise indistinguishable. Calibrated records whether this sweep
// measured β/α or used the paper's fixed ratio (fig3 always uses the
// fixed ratio regardless of the run-level config).
type JSONFigure struct {
	ID         string `json:"id"`
	Calibrated bool   `json:"calibrated"`
	*Fig2Result
}

// RunMeta pins the environment one report was produced in, so numbers
// compared across commits (BENCH_*.json files) can be discounted when
// the toolchain or machine shape changed underneath them.
type RunMeta struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Quant is the point-store quantization mode the run benchmarked
	// ("off" or "sq8"; empty in reports that predate the mode).
	Quant string `json:"quant,omitempty"`
}

// JSONReport is the machine-readable form of one hybridbench run: the
// configuration it ran under plus every experiment result it produced,
// in production order. cmd/hybridbench writes it via -json so the perf
// trajectory can be tracked across commits (BENCH_*.json files).
type JSONReport struct {
	Schema     string            `json:"schema"`
	Meta       RunMeta           `json:"meta"`
	Config     Config            `json:"config"`
	Table1     []Table1Row       `json:"table1,omitempty"`
	Figures    []JSONFigure      `json:"figures,omitempty"`
	Persist    *PersistResult    `json:"persist,omitempty"`
	Delete     *DeleteResult     `json:"delete,omitempty"`
	MultiProbe *MultiProbeResult `json:"multiprobe,omitempty"`
	Covering   *CoveringResult   `json:"covering,omitempty"`
	Serve      *ServeResult      `json:"serve,omitempty"`
	Recal      *RecalResult      `json:"recal,omitempty"`
	Cache      *CacheResult      `json:"cache,omitempty"`
	Quant      *QuantResult      `json:"quant,omitempty"`
	Replica    *ReplicaResult    `json:"replica,omitempty"`
}

// NewJSONReport starts an empty report for the given configuration and
// quantization mode, stamped with the producing environment. The meta
// is collected exactly once, here: every report one invocation writes
// carries an identical RunMeta no matter which experiments ran, so
// BENCH_*.json files from the same run can be compared meta-for-meta.
func NewJSONReport(cfg Config, quant string) *JSONReport {
	return &JSONReport{
		Schema: JSONSchema,
		Meta:   CollectRunMeta(quant),
		Config: cfg,
	}
}

// CollectRunMeta gathers the environment stamp for one invocation.
func CollectRunMeta(quant string) RunMeta {
	return RunMeta{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quant:     quant,
	}
}

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, r *JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
