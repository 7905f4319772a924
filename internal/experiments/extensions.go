package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file holds artifacts that go beyond the paper's figures — the
// future-work extensions DESIGN.md commits to (concurrency, queueing,
// variability). Their IDs carry an "ext-" prefix so readers can tell
// reproduction from extension at a glance.

// LoadHeatmap renders the full sweep as a (parallel flows × concurrency)
// worst-case heat map — a denser view of Fig. 2a's data that shows P's
// second-order effect.
func LoadHeatmap(sweep *workload.GridResult) (Artifact, error) {
	if sweep == nil || len(sweep.Rows) == 0 {
		return Artifact{}, fmt.Errorf("experiments: empty sweep for heat map")
	}
	pSet := map[int]bool{}
	cSet := map[int]bool{}
	for _, r := range sweep.Rows {
		pSet[r.ParallelFlows] = true
		cSet[r.Concurrency] = true
	}
	ps := sortedKeys(pSet)
	cs := sortedKeys(cSet)

	rows := make([]string, len(ps))
	cols := make([]string, len(cs))
	vals := make([][]float64, len(ps))
	idx := func(xs []int, v int) int {
		for i, x := range xs {
			if x == v {
				return i
			}
		}
		return -1
	}
	for i, p := range ps {
		rows[i] = fmt.Sprintf("P=%d", p)
		vals[i] = make([]float64, len(cs))
	}
	for i, c := range cs {
		cols[i] = fmt.Sprintf("c=%d", c)
	}
	for _, r := range sweep.Rows {
		vals[idx(ps, r.ParallelFlows)][idx(cs, r.Concurrency)] = r.Worst.Seconds()
	}

	title := "Worst transfer time (s) by parallel flows x concurrency [extension]"
	text, err := plot.HeatMap(title, rows, cols, vals)
	if err != nil {
		return Artifact{}, fmt.Errorf("experiments: heat map: %w", err)
	}
	t := &plot.Table{Header: append([]string{"P\\concurrency"}, cols...)}
	for i, p := range rows {
		cells := make([]string, 0, len(cs)+1)
		cells = append(cells, p)
		for j := range cs {
			cells = append(cells, fmt.Sprintf("%.3f", vals[i][j]))
		}
		t.AddRow(cells...)
	}
	var csv bytes.Buffer
	_ = t.WriteCSV(&csv)
	return Artifact{ID: "ext-heatmap", Title: title, Text: text, CSV: csv.String()}, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// VariabilityReport evaluates the decision model against the measured
// transfer-time distribution of the sweep's highest-load stable cell —
// the "variability in network and compute performance" extension. It
// reports the probability the remote path wins, deadline satisfaction,
// and whether the median and worst-case decisions disagree.
func VariabilityReport(sweep *workload.GridResult) (Artifact, error) {
	if sweep == nil || len(sweep.Rows) == 0 {
		return Artifact{}, fmt.Errorf("experiments: empty sweep for variability report")
	}
	// Pick the highest offered load at or below 100% — congested but not
	// divergent, the regime where variability actually matters.
	var cell *workload.GridRow
	for i := range sweep.Rows {
		r := &sweep.Rows[i]
		if r.OfferedLoad <= 1.0 && (cell == nil || r.OfferedLoad > cell.OfferedLoad ||
			(r.OfferedLoad == cell.OfferedLoad && r.ParallelFlows > cell.ParallelFlows)) {
			cell = r
		}
	}
	if cell == nil {
		cell = &sweep.Rows[len(sweep.Rows)-1]
	}

	fcts := stats.NewSample()
	for _, d := range cell.TransferTimes {
		fcts.Add(d)
	}

	// The §5 coherent-scattering parameters, deadline Tier 2.
	p := core.Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(17e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             sweep.Axes.Net.Capacity,
		TransferRate:          2 * units.GBps,
		Theta:                 1,
	}
	rep, err := core.DecideUnderVariability(p, fcts, cell.Cell.TransferSize, core.Tier2.Budget())
	if err != nil {
		return Artifact{}, fmt.Errorf("experiments: variability: %w", err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "measured cell: concurrency=%d P=%d offered=%.0f%% (%d transfers)\n",
		cell.Concurrency, cell.ParallelFlows, cell.OfferedLoad*100, rep.N)
	fmt.Fprintf(&b, "workload: coherent scattering (2 GB units, 34 TF), Tier 2 deadline\n\n")
	fmt.Fprintf(&b, "P(remote wins)        = %.2f\n", rep.PRemoteWins)
	fmt.Fprintf(&b, "P(meets Tier 2)       = %.2f\n", rep.PMeetsDeadline)
	fmt.Fprintf(&b, "T_pct distribution    : %s\n", rep.TPct)
	fmt.Fprintf(&b, "median-case decision  : %s\n", rep.MedianChoice)
	fmt.Fprintf(&b, "worst-case decision   : %s\n", rep.WorstChoice)
	if rep.Disagreement() {
		fmt.Fprintf(&b, "\n=> average-case and worst-case decisions DISAGREE: designing for the\n")
		fmt.Fprintf(&b, "   median here ships a system that fails under congestion (the paper's thesis).\n")
	} else {
		fmt.Fprintf(&b, "\n=> decision robust across the measured distribution at this load.\n")
	}

	title := "Decision under measured variability (future-work extension)"
	return Artifact{ID: "ext-variability", Title: title, Text: b.String()}, nil
}

// GainMap renders the remote-wins frontier: the gain surface over
// (α, r) for the §5 coherent-scattering workload. Cells above 1 favor
// streaming to remote HPC; the frontier line is where facility planning
// decisions flip.
func GainMap() (Artifact, error) {
	p := core.Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(17e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             25 * units.Gbps,
		TransferRate:          2 * units.GBps,
		Theta:                 1,
	}
	alphas := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	rs := []float64{0.5, 1, 2, 5, 10, 20}
	grid, err := p.GainGrid(alphas, rs)
	if err != nil {
		return Artifact{}, fmt.Errorf("experiments: gain grid: %w", err)
	}
	rows := make([]string, len(rs))
	for i, r := range rs {
		rows[i] = fmt.Sprintf("r=%g", r)
	}
	cols := make([]string, len(alphas))
	for j, a := range alphas {
		cols[j] = fmt.Sprintf("a=%g", a)
	}
	title := "Gain G = T_local/T_pct over (alpha, r); G>1 => stream to remote [extension]"
	text, err := plot.HeatMap(title, rows, cols, grid)
	if err != nil {
		return Artifact{}, fmt.Errorf("experiments: gain map: %w", err)
	}
	text += "workload: coherent scattering (2 GB units, 17 TFLOP/GB) on 25 Gbps\n"

	t := &plot.Table{Header: append([]string{"r\\alpha"}, cols...)}
	for i := range rs {
		cells := make([]string, 0, len(alphas)+1)
		cells = append(cells, rows[i])
		for j := range alphas {
			cells = append(cells, fmt.Sprintf("%.3f", grid[i][j]))
		}
		t.AddRow(cells...)
	}
	var csv bytes.Buffer
	_ = t.WriteCSV(&csv)
	return Artifact{ID: "ext-gainmap", Title: title, Text: text, CSV: csv.String()}, nil
}

// PipelineReport applies the concurrency extension to the §5 workload: a
// continuous 1 Hz stream of 2 GB units through the remote pipeline.
func PipelineReport() (Artifact, error) {
	p := core.Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(17e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             25 * units.Gbps,
		TransferRate:          2 * units.GBps,
		Theta:                 1,
	}
	const n = 60 // one minute of units
	interval := time.Second

	d, err := core.DecidePipeline(p, n, interval)
	if err != nil {
		return Artifact{}, fmt.Errorf("experiments: pipeline report: %w", err)
	}
	lag, lagErr := p.SteadyStateLag(interval)

	var b bytes.Buffer
	tr, cp := p.PipelineStageTimes()
	fmt.Fprintf(&b, "workload: %d x 2 GB units at %v cadence (coherent scattering)\n\n", n, interval)
	fmt.Fprintf(&b, "stage times: transfer %v, compute %v => cycle %v\n",
		tr.Round(time.Millisecond), cp.Round(time.Millisecond), p.PipelineBottleneck().Round(time.Millisecond))
	fmt.Fprintf(&b, "remote completion (%d units): %v\n", n, d.RemoteCompletion.Round(time.Millisecond))
	fmt.Fprintf(&b, "local  completion (%d units): %v\n", n, d.LocalCompletion.Round(time.Millisecond))
	fmt.Fprintf(&b, "remote keeps 1 Hz cadence: %v; local keeps cadence: %v\n", d.RemoteKeepsUp, d.LocalKeepsUp)
	if lagErr == nil {
		fmt.Fprintf(&b, "steady-state result lag: %v\n", lag.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "\nDECISION: %s\n%s\n", d.Choice, d.Reason)

	title := "Streaming pipeline concurrency model (future-work extension)"
	return Artifact{ID: "ext-pipeline", Title: title, Text: b.String()}, nil
}
