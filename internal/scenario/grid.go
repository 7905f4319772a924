package scenario

// Grid decisions: evaluate the paper's stream-vs-store model over a
// measured workload.GridResult, one decision per grid cell, and report
// where the break-even flips across each axis. This is the quantitative
// form of the cross-facility observation (George et al. 2025) that the
// same pipeline streams at one operating point and stages at another:
// the congestion sweep supplies the measured effective transfer rate per
// cell, and the decision model turns it into local/remote/infeasible.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/units"
	"repro/internal/workload"
)

// GridDecision is one grid cell's measured behavior coupled with the
// decision the model reaches at that operating point.
type GridDecision struct {
	Row      workload.GridRow
	Params   core.Params
	Decision core.Decision
}

// DecideGrid evaluates the stream-vs-store decision across a measured
// grid. base supplies the workload's compute-side parameters (complexity,
// local and remote rates, θ); per cell, the unit size is the cell's
// transfer size, the bandwidth is the grid's link capacity, and the
// effective transfer rate is the congestion-degraded rate the sweep
// measured — TransferSize over the worst-case FCT, the paper's
// conservative α. Rows keep grid order, so Flips sees cells adjacent
// along each axis consecutively.
func DecideGrid(g *workload.GridResult, base core.Params, opts core.DecideOpts) ([]GridDecision, error) {
	if g == nil || len(g.Rows) == 0 {
		return nil, fmt.Errorf("scenario: empty grid")
	}
	out := make([]GridDecision, 0, len(g.Rows))
	for _, row := range g.Rows {
		cap, rate, err := measuredLink(g.Axes, row)
		if err != nil {
			return nil, err
		}
		p := base
		p.UnitSize = row.Cell.TransferSize
		p.Bandwidth = cap
		p.TransferRate = rate
		d, err := core.Decide(p, opts)
		if err != nil {
			return nil, fmt.Errorf("scenario: grid cell %d: %w", row.Cell.Index, err)
		}
		out = append(out, GridDecision{Row: row, Params: p, Decision: d})
	}
	return out, nil
}

// cellCapacity is the link capacity backing one cell's measurement:
// the composed bottleneck on a multi-hop grid (GridCell.Capacity),
// the grid's flat base link otherwise.
func cellCapacity(a workload.Axes, c workload.GridCell) units.BitRate {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return a.Net.Capacity
}

// measuredLink lowers one measured grid row to the transfer side of a
// decision: the capacity of the link that carried it and the effective
// rate it measured (GridRow.EffectiveRate, the paper's conservative α).
// Every decision over grid rows goes through here, so multi-hop cells
// are judged against the bottleneck that actually carried them.
func measuredLink(a workload.Axes, row workload.GridRow) (units.BitRate, units.ByteRate, error) {
	cap := cellCapacity(a, row.Cell)
	rate := row.EffectiveRate(cap)
	if rate <= 0 {
		return 0, 0, fmt.Errorf("scenario: grid cell %d has non-positive worst FCT", row.Cell.Index)
	}
	return cap, rate, nil
}

// Flip marks two cells adjacent along one axis (all other coordinates
// equal) whose decisions differ — a break-even boundary of the grid.
type Flip struct {
	// Axis names the coordinate that changed ("rtt", "buffer", ...).
	Axis     string
	From, To GridDecision
}

// gridAxis is one coordinate of a grid cell: the name flip reports use,
// the header of its table column, and its rendering.
type gridAxis struct {
	name, header string
	value        func(c workload.GridCell) string
}

var (
	sizeAxis  = gridAxis{"size", "Size", func(c workload.GridCell) string { return c.TransferSize.String() }}
	ccAxis    = gridAxis{"cc", "CC", func(c workload.GridCell) string { return c.CC.String() }}
	flowsAxis = gridAxis{"flows", "P", func(c workload.GridCell) string { return strconv.Itoa(c.ParallelFlows) }}
	concAxis  = gridAxis{"conc", "Conc", func(c workload.GridCell) string { return strconv.Itoa(c.Concurrency) }}

	// flatAxes and hopAxes are the coordinates of a flat and of a
	// multi-hop grid, in flip-report order. On a multi-hop grid the hop
	// knobs replace the flat link axes (rtt/buffer/cross are composed
	// outputs there, not independent coordinates). The names appear in
	// archived portfolio JSON (frontier strings), so they are frozen.
	flatAxes = []gridAxis{
		sizeAxis,
		{"rtt", "RTT", func(c workload.GridCell) string { return c.RTT.String() }},
		{"buffer", "Buffer", func(c workload.GridCell) string { return workload.BufferLabel(c.Buffer) }},
		ccAxis,
		{"cross", "Cross", func(c workload.GridCell) string { return fmt.Sprintf("%g", c.CrossFraction) }},
		flowsAxis, concAxis,
	}
	hopAxes = []gridAxis{
		sizeAxis,
		{"ecap", "ECap", func(c workload.GridCell) string { return baseLabel(c.EdgeCap == 0, c.EdgeCap) }},
		{"wrtt", "WANRTT", func(c workload.GridCell) string { return baseLabel(c.WANRTT == 0, c.WANRTT) }},
		{"ibuf", "IBuf", func(c workload.GridCell) string { return workload.BufferLabel(c.IngressBuffer) }},
		ccAxis, flowsAxis, concAxis,
	}
)

// baseLabel names a hop-knob value; "base" marks a hop the grid does
// not sweep, which keeps the path's own value.
func baseLabel(isBase bool, v fmt.Stringer) string {
	if isBase {
		return "base"
	}
	return v.String()
}

// axesOf picks a cell's coordinate vocabulary. Multi-hop cells are
// recognizable by their composed Capacity, which flat cells leave 0.
func axesOf(c workload.GridCell) []gridAxis {
	if c.Capacity > 0 {
		return hopAxes
	}
	return flatAxes
}

// coord renders a cell's coordinate on the named axis.
func coord(c workload.GridCell, axis string) string {
	for _, ax := range axesOf(c) {
		if ax.name == axis {
			return ax.value(c)
		}
	}
	return "?"
}

// flatColumns and hopColumns are the coordinate columns of a grid
// table: the network axes in report order, then the Table 2 plane as
// Conc, P.
var (
	flatColumns = columns(flatAxes)
	hopColumns  = columns(hopAxes)
)

// columns reorders a vocabulary into table columns: its last two axes
// (flows, conc) swap places.
func columns(axes []gridAxis) []gridAxis {
	n := len(axes)
	return append(axes[:n-2:n-2], axes[n-1], axes[n-2])
}

// coordHeader and coordRow render a table's coordinate columns, then
// the rest of its columns.
func coordHeader(cols []gridAxis, rest ...string) []string {
	out := make([]string, 0, len(cols)+len(rest))
	for _, ax := range cols {
		out = append(out, ax.header)
	}
	return append(out, rest...)
}

func coordRow(cols []gridAxis, c workload.GridCell, rest ...string) []string {
	out := make([]string, 0, len(cols)+len(rest))
	for _, ax := range cols {
		out = append(out, ax.value(c))
	}
	return append(out, rest...)
}

// CoordHeader returns the header of a table over the (normalized) grid
// a: the coordinate columns (the hop knobs on a multi-hop grid, the
// flat link axes otherwise), then rest.
func CoordHeader(a workload.Axes, rest ...string) []string {
	if len(a.Path) > 1 {
		return coordHeader(hopColumns, rest...)
	}
	return coordHeader(flatColumns, rest...)
}

// CoordRow renders one cell's coordinate columns, matching CoordHeader,
// then rest.
func CoordRow(c workload.GridCell, rest ...string) []string {
	if c.Capacity > 0 {
		return coordRow(hopColumns, c, rest...)
	}
	return coordRow(flatColumns, c, rest...)
}

// otherCoords keys every coordinate except the named axis.
func otherCoords(c workload.GridCell, axis string) string {
	axes := axesOf(c)
	parts := make([]string, 0, len(axes)-1)
	for _, ax := range axes {
		if ax.name != axis {
			parts = append(parts, ax.name+"="+ax.value(c))
		}
	}
	return strings.Join(parts, " ")
}

// scanFlips is the ordered break-even scan behind Flips and
// PlacementFlips: for each axis of the grid, it reports every pair of
// cells adjacent along that axis, all other coordinates equal, whose
// verdicts differ. Grid row order keeps each axis's cells in axis-value
// order within a fixed remainder, so one ordered pass per axis finds
// every boundary.
func scanFlips[D any](ds []D, cell func(D) workload.GridCell, differ func(a, b D) bool, emit func(axis string, from, to D)) {
	if len(ds) == 0 {
		return
	}
	for _, ax := range axesOf(cell(ds[0])) {
		last := make(map[string]D)
		for _, d := range ds {
			key := otherCoords(cell(d), ax.name)
			if prev, ok := last[key]; ok && differ(prev, d) {
				emit(ax.name, prev, d)
			}
			last[key] = d
		}
	}
}

// flipLine renders one flip as a report line.
func flipLine(axis string, from, to workload.GridCell, fromVerdict, toVerdict fmt.Stringer) string {
	return fmt.Sprintf("%s %s -> %s: %s -> %s (%s)",
		axis, coord(from, axis), coord(to, axis), fromVerdict, toVerdict, otherCoords(to, axis))
}

// Flips scans decisions in grid order and returns every break-even
// boundary: adjacent cells along one axis, all other coordinates equal,
// with differing choices.
func Flips(ds []GridDecision) []Flip {
	var flips []Flip
	scanFlips(ds, func(d GridDecision) workload.GridCell { return d.Row.Cell },
		func(a, b GridDecision) bool { return a.Decision.Choice != b.Decision.Choice },
		func(axis string, from, to GridDecision) { flips = append(flips, Flip{Axis: axis, From: from, To: to}) })
	return flips
}

// String renders one flip as a report line.
func (f Flip) String() string {
	return flipLine(f.Axis, f.From.Row.Cell, f.To.Row.Cell, f.From.Decision.Choice, f.To.Decision.Choice)
}

// FlipReport renders the break-even flip block — the same lines every
// grid renderer prints — with each line prefixed by indent.
func FlipReport(ds []GridDecision, indent string) string {
	var b strings.Builder
	flips := Flips(ds)
	if len(flips) == 0 {
		fmt.Fprintf(&b, "%sbreak-even flips: none (decision uniform across the grid)\n", indent)
		return b.String()
	}
	fmt.Fprintf(&b, "%sbreak-even flips (%d):\n", indent, len(flips))
	for _, f := range flips {
		fmt.Fprintf(&b, "%s  %s\n", indent, f)
	}
	return b.String()
}

// RenderGrid formats grid decisions as an aligned table followed by the
// break-even flip report. The coordinate columns are the flat grid's.
func RenderGrid(ds []GridDecision) string {
	t := &plot.Table{Header: coordHeader(flatColumns,
		"Worst", "R_eff", "T_local", "T_pct", "Gain", "Decision")}
	for _, d := range ds {
		t.AddRow(coordRow(flatColumns, d.Row.Cell,
			d.Row.Worst.Round(time.Millisecond).String(),
			d.Params.TransferRate.String(),
			d.Decision.Breakdown.TLocal.Round(time.Millisecond).String(),
			d.Decision.Breakdown.TPct.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", d.Decision.Gain),
			d.Decision.Choice.String(),
		)...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString(FlipReport(ds, ""))
	return b.String()
}
