package bench

import (
	"fmt"
	"io"
	"strings"
)

// PrintFig2 writes a Figure-2 panel as a text table in the layout of the
// paper's plots: one row per radius, one column per strategy.
func PrintFig2(w io.Writer, res *Fig2Result) {
	fmt.Fprintf(w, "%s (n=%d, metric=%s, store=%s, β/α=%.2f) — CPU time (s) per query set\n",
		res.Dataset, res.N, res.Metric, res.Store, res.BetaOverAlpha)
	fmt.Fprintf(w, "%10s %12s %12s %12s %10s %10s %8s\n",
		"radius", "Hybrid", "LSH", "Linear", "rec(Hyb)", "rec(LSH)", "LS%")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%10.4g %12.6f %12.6f %12.6f %10.3f %10.3f %8.1f\n",
			r.Radius, r.HybridSec, r.LSHSec, r.LinearSec,
			r.HybridRecall, r.LSHRecall, r.LSCallsPct)
	}
}

// PrintFig3 writes the two Figure-3 series (Webspam output-size stats and
// linear-search call percentage).
func PrintFig3(w io.Writer, res *Fig2Result) {
	fmt.Fprintf(w, "%s — output size and %% linear-search calls (Figure 3)\n", res.Dataset)
	fmt.Fprintf(w, "%10s %12s %12s %12s %10s\n", "radius", "avg out", "max out", "min out", "LS%")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%10.4g %12d %12d %12d %10.1f\n",
			r.Radius, r.OutAvg, r.OutMax, r.OutMin, r.LSCallsPct)
	}
}

// PrintTable1 writes Table 1 in the paper's layout (datasets as columns).
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Relative cost and error of HLLs\n")
	fmt.Fprintf(w, "%-10s", "Dataset")
	for _, r := range rows {
		fmt.Fprintf(w, " %15s", strings.TrimSuffix(r.Dataset, "-like"))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "% Cost")
	for _, r := range rows {
		fmt.Fprintf(w, " %14.2f%%", r.CostPct)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "% Error")
	for _, r := range rows {
		fmt.Fprintf(w, " %14.2f%%", r.ErrPct)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "β/α")
	for _, r := range rows {
		fmt.Fprintf(w, " %15.2f", r.BetaOverAlpha)
	}
	fmt.Fprintln(w)
}
