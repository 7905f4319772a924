package scenario

// Hop-frontier decisions: the multi-hop analogue of DecideGrid. Where a
// flat grid asks "stream or store" per cell and Flips reports where the
// binary verdict turns over, a multi-hop grid asks WHERE to process —
// stream direct, prefilter at the edge, or store-and-forward — and the
// frontier of interest is where the *placement* changes as hop knobs
// (edge capacity, WAN RTT, ingress buffer) sweep. The measured side is
// identical to the flat pipeline: the same grid rows, the same
// congestion-degraded effective rate; only the verdict is richer.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/workload"
)

// PlacementGridDecision couples one multi-hop cell's measured behavior
// and stream-vs-store decision with its placement verdict.
type PlacementGridDecision struct {
	GridDecision
	Placement core.PlacementDecision
}

// DecidePlacementGrid evaluates the where-to-process decision across a
// measured multi-hop grid. The per-cell measured lowering is exactly
// DecideGrid's (unit size from the cell, bandwidth from the composed
// bottleneck, rate from the worst-case FCT); on top of it each cell's
// hop chain — the grid path with that cell's hop-axis coordinates
// applied — is attributed through core.DecidePlacement.
func DecidePlacementGrid(g *workload.GridResult, base core.Params, opts core.PlacementOpts) ([]PlacementGridDecision, error) {
	if g == nil || len(g.Rows) == 0 {
		return nil, fmt.Errorf("scenario: empty grid")
	}
	if len(g.Axes.Path) < 2 {
		return nil, fmt.Errorf("scenario: placement grid needs a multi-hop path (got %d hops)", len(g.Axes.Path))
	}
	out := make([]PlacementGridDecision, 0, len(g.Rows))
	for _, row := range g.Rows {
		cap, rate, err := measuredLink(g.Axes, row)
		if err != nil {
			return nil, err
		}
		p := base
		p.UnitSize = row.Cell.TransferSize
		p.Bandwidth = cap
		p.TransferRate = rate
		pd, err := core.DecidePlacement(p, hopParams(g.Axes.Path, row.Cell), opts)
		if err != nil {
			return nil, fmt.Errorf("scenario: grid cell %d: %w", row.Cell.Index, err)
		}
		out = append(out, PlacementGridDecision{
			GridDecision: GridDecision{Row: row, Params: p, Decision: pd.Direct},
			Placement:    pd,
		})
	}
	return out, nil
}

// PlacementFlip marks two cells adjacent along one hop axis whose
// placements differ — a hop frontier of the grid.
type PlacementFlip struct {
	Axis     string
	From, To PlacementGridDecision
}

// String renders one placement flip in the Flip line format, with the
// placement verdicts in the decision slots.
func (f PlacementFlip) String() string {
	return flipLine(f.Axis, f.From.Row.Cell, f.To.Row.Cell, f.From.Placement.Placement, f.To.Placement.Placement)
}

// PlacementFlips scans decisions in grid order — the same ordered pass
// Flips makes — comparing placements instead of binary choices.
func PlacementFlips(ds []PlacementGridDecision) []PlacementFlip {
	var flips []PlacementFlip
	scanFlips(ds, func(d PlacementGridDecision) workload.GridCell { return d.Row.Cell },
		func(a, b PlacementGridDecision) bool { return a.Placement.Placement != b.Placement.Placement },
		func(axis string, from, to PlacementGridDecision) {
			flips = append(flips, PlacementFlip{Axis: axis, From: from, To: to})
		})
	return flips
}

// bottleneckName names the bottleneck hop of one placement decision.
func bottleneckName(pd core.PlacementDecision) string {
	for _, h := range pd.Hops {
		if h.Bottleneck {
			return h.Name
		}
	}
	return "?"
}

// RenderPlacementGrid formats a placement grid as an aligned table —
// hop coordinates, measured behavior, the bottleneck hop, and the
// placement verdict — followed by the hop-frontier report.
func RenderPlacementGrid(ds []PlacementGridDecision) string {
	t := &plot.Table{Header: coordHeader(hopColumns,
		"Worst", "R_eff", "Bottleneck", "Gain", "Placement")}
	for _, d := range ds {
		t.AddRow(coordRow(hopColumns, d.Row.Cell,
			d.Row.Worst.Round(time.Millisecond).String(),
			d.Params.TransferRate.String(),
			bottleneckName(d.Placement),
			fmt.Sprintf("%.2f", d.Decision.Gain),
			d.Placement.Placement.String(),
		)...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	flips := PlacementFlips(ds)
	if len(flips) == 0 {
		b.WriteString("placement frontier: none (placement uniform across the grid)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "placement frontier (%d):\n", len(flips))
	for _, f := range flips {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}
