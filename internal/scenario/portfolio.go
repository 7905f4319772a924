package scenario

// Portfolio-over-grid evaluation: a fixed, named set of scenario
// workloads (the JSON portfolio a facility already scripts against via
// DecideAll) decided at *every* cell of a measured workload.Axes grid.
// This is the shape cross-facility deployments actually have (George et
// al. 2025): the instrument mix is fixed, the network regime is not, and
// the operational question is which fraction of the portfolio should
// stream at each operating point — and where each workload's decision
// flips. Every cell reuses the grid's measured effective transfer rate
// (GridRow.EffectiveRate, the paper's conservative α), so deciding a
// portfolio over an already-cached grid performs zero simulations.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/units"
	"repro/internal/workload"
)

// Portfolio is a named set of scenario workloads — the instrument mix a
// facility operates, held fixed while the network regime varies.
type Portfolio struct {
	// Name labels the portfolio in reports and archives.
	Name string
	// Workloads are the scenario rows, in file order.
	Workloads []Workload
}

// NewPortfolio wraps an already-loaded scenario File.
func NewPortfolio(name string, f *File) (*Portfolio, error) {
	if f == nil || len(f.Workloads) == 0 {
		return nil, ErrNoWorkloads
	}
	if name == "" {
		name = "portfolio"
	}
	return &Portfolio{Name: name, Workloads: f.Workloads}, nil
}

// LoadPortfolio parses a portfolio from r (the same JSON schema Load
// reads) and names it.
func LoadPortfolio(name string, r io.Reader) (*Portfolio, error) {
	f, err := Load(r)
	if err != nil {
		return nil, err
	}
	return NewPortfolio(name, f)
}

// LoadPortfolioFile reads a portfolio from a JSON file, named after the
// file's base name — the one loader every -portfolio CLI flag shares.
func LoadPortfolioFile(path string) (*Portfolio, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return LoadPortfolio(name, f)
}

// PortfolioDecision is one scenario's decision at one grid cell.
type PortfolioDecision struct {
	// Scenario indexes Portfolio.Workloads.
	Scenario int
	// Params are the scenario's parameters at this cell: its own compute
	// side and unit size, the grid's link as bandwidth, and the cell's
	// measured effective rate as R_transfer.
	Params   core.Params
	Decision core.Decision
}

// PortfolioCell couples one grid cell's measurement with the decision
// every portfolio scenario reaches at that operating point.
type PortfolioCell struct {
	Row workload.GridRow
	// Rate is the cell's measured effective transfer rate (size over
	// worst-case FCT, capped at the link).
	Rate units.ByteRate
	// Decisions holds one entry per portfolio scenario, in file order.
	Decisions []PortfolioDecision
}

// StreamFraction returns the fraction of the portfolio that should
// stream (choose remote) at this cell.
func (c PortfolioCell) StreamFraction() float64 {
	if len(c.Decisions) == 0 {
		return 0
	}
	n := 0
	for _, d := range c.Decisions {
		if d.Decision.Choice == core.ChooseRemote {
			n++
		}
	}
	return float64(n) / float64(len(c.Decisions))
}

// PortfolioGrid is a portfolio decided at every cell of a measured grid.
type PortfolioGrid struct {
	Portfolio *Portfolio
	// Axes is the normalized grid description the decisions were made on.
	Axes  workload.Axes
	Cells []PortfolioCell
}

// DecidePortfolio evaluates every portfolio scenario at every cell of a
// measured grid. Each scenario keeps its own compute side (complexity,
// local and remote rates, θ), unit size, and constraints (generation
// rate, tier deadline); per cell, the link is the grid's capacity and
// the effective transfer rate is the cell's measured conservative α —
// unlike DecideGrid, the unit size is the scenario's own, because the
// portfolio is the fixed quantity and the network is what varies.
// Decisions are a pure function of the grid, so a cached GridResult
// yields a portfolio verdict with zero additional simulations.
func DecidePortfolio(pf *Portfolio, g *workload.GridResult) (*PortfolioGrid, error) {
	if pf == nil || len(pf.Workloads) == 0 {
		return nil, ErrNoWorkloads
	}
	if g == nil || len(g.Rows) == 0 {
		return nil, fmt.Errorf("scenario: empty grid")
	}
	// Parse each scenario's parameters and constraints once, not per cell.
	bases := make([]core.Params, len(pf.Workloads))
	options := make([]core.DecideOpts, len(pf.Workloads))
	for i, w := range pf.Workloads {
		var err error
		if bases[i], options[i], err = w.Model(); err != nil {
			return nil, err
		}
	}
	out := &PortfolioGrid{Portfolio: pf, Axes: g.Axes, Cells: make([]PortfolioCell, 0, len(g.Rows))}
	for _, row := range g.Rows {
		cap, rate, err := measuredLink(g.Axes, row)
		if err != nil {
			return nil, err
		}
		cell := PortfolioCell{Row: row, Rate: rate, Decisions: make([]PortfolioDecision, 0, len(pf.Workloads))}
		for i, w := range pf.Workloads {
			p := bases[i]
			p.Bandwidth = cap
			p.TransferRate = rate
			d, err := core.Decide(p, options[i])
			if err != nil {
				return nil, fmt.Errorf("scenario: %s at grid cell %d: %w", w.Name, row.Cell.Index, err)
			}
			cell.Decisions = append(cell.Decisions, PortfolioDecision{Scenario: i, Params: p, Decision: d})
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// ScenarioDecisions views one scenario's decisions across the grid as a
// []GridDecision — the shape Flips and FlipReport consume — so the
// break-even machinery generalizes from one decision surface to a
// portfolio of them without duplication.
func (pg *PortfolioGrid) ScenarioDecisions(i int) []GridDecision {
	out := make([]GridDecision, 0, len(pg.Cells))
	for _, c := range pg.Cells {
		d := c.Decisions[i]
		out = append(out, GridDecision{Row: c.Row, Params: d.Params, Decision: d.Decision})
	}
	return out
}

// ChoiceCounts tallies one scenario's decisions across the grid.
func (pg *PortfolioGrid) ChoiceCounts(i int) map[core.Choice]int {
	counts := make(map[core.Choice]int)
	for _, c := range pg.Cells {
		counts[c.Decisions[i].Decision.Choice]++
	}
	return counts
}

// ScenarioFrontier is one scenario's break-even frontier: every axis
// boundary across the grid where its decision flips.
type ScenarioFrontier struct {
	// Scenario is the workload's name.
	Scenario string
	Flips    []Flip
}

// Frontiers returns each scenario's flip frontier in portfolio order.
func (pg *PortfolioGrid) Frontiers() []ScenarioFrontier {
	out := make([]ScenarioFrontier, 0, len(pg.Portfolio.Workloads))
	for i, w := range pg.Portfolio.Workloads {
		out = append(out, ScenarioFrontier{Scenario: w.Name, Flips: Flips(pg.ScenarioDecisions(i))})
	}
	return out
}

// RenderPortfolio formats the portfolio grid as an aligned table — one
// row per cell, one decision column per scenario, plus the fraction of
// the portfolio that should stream at that cell — followed by each
// scenario's break-even frontier.
func RenderPortfolio(pg *PortfolioGrid) string {
	header := coordHeader(flatColumns, "Worst", "R_eff")
	for _, w := range pg.Portfolio.Workloads {
		header = append(header, w.Name)
	}
	header = append(header, "Stream")
	t := &plot.Table{Header: header}
	for _, c := range pg.Cells {
		row := coordRow(flatColumns, c.Row.Cell, c.Row.Worst.Round(time.Millisecond).String(), c.Rate.String())
		for _, d := range c.Decisions {
			row = append(row, d.Decision.Choice.String())
		}
		row = append(row, fmt.Sprintf("%.0f%%", c.StreamFraction()*100))
		t.AddRow(row...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "portfolio: %s (%d scenarios) over %s\n",
		pg.Portfolio.Name, len(pg.Portfolio.Workloads), GridHeader(pg.Axes))
	b.WriteString(t.String())
	b.WriteString(RenderFrontiers(pg))
	return b.String()
}

// RenderFrontiers renders the per-scenario break-even frontier block.
func RenderFrontiers(pg *PortfolioGrid) string {
	var b strings.Builder
	b.WriteString("per-scenario break-even frontiers:\n")
	for _, fr := range pg.Frontiers() {
		if len(fr.Flips) == 0 {
			fmt.Fprintf(&b, "  %s: none (decision uniform across the grid)\n", fr.Scenario)
			continue
		}
		fmt.Fprintf(&b, "  %s (%d):\n", fr.Scenario, len(fr.Flips))
		for _, f := range fr.Flips {
			fmt.Fprintf(&b, "    %s\n", f)
		}
	}
	return b.String()
}

// PortfolioSchema stamps archived portfolio-grid JSON documents, in the
// same spirit as workload.CellRecordVersion: bump it whenever the report
// schema changes, so readers can reject foreign or stale archives.
const PortfolioSchema = "repro-portfolio/v1"

// PortfolioReport is the archival form of a PortfolioGrid: a stable,
// versioned JSON document carrying every decision, gain, and frontier,
// so portfolio runs can be stored and re-analyzed like internal/trace
// transfer logs.
type PortfolioReport struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Grid is the human-readable grid header; Fingerprint is the exact
	// workload.Axes fingerprint the decisions were computed on, tying the
	// archive to one reproducible grid.
	Grid        string                    `json:"grid"`
	Fingerprint string                    `json:"fingerprint"`
	Scenarios   []string                  `json:"scenarios"`
	Cells       []PortfolioCellReport     `json:"cells"`
	Frontiers   []PortfolioFrontierReport `json:"frontiers"`
}

// PortfolioCellReport is one archived grid cell.
type PortfolioCellReport struct {
	Index         int     `json:"index"`
	Size          string  `json:"size"`
	RTT           string  `json:"rtt"`
	Buffer        string  `json:"buffer"`
	CC            string  `json:"cc"`
	Cross         float64 `json:"cross"`
	Concurrency   int     `json:"concurrency"`
	ParallelFlows int     `json:"parallel_flows"`
	// WorstS is the measured worst-case FCT in seconds; RateBps the
	// effective transfer rate in bytes/second. Full float64 precision —
	// archives of the same grid are byte-identical.
	WorstS  float64 `json:"worst_s"`
	RateBps float64 `json:"rate_Bps"`
	// Decisions and Gains hold one entry per scenario, in portfolio order.
	Decisions      []string  `json:"decisions"`
	Gains          []float64 `json:"gains"`
	StreamFraction float64   `json:"stream_fraction"`
}

// PortfolioFrontierReport is one scenario's archived flip frontier.
type PortfolioFrontierReport struct {
	Scenario string   `json:"scenario"`
	Flips    []string `json:"flips"`
}

// Report builds the archival document.
func (pg *PortfolioGrid) Report() *PortfolioReport {
	r := &PortfolioReport{
		Schema:      PortfolioSchema,
		Name:        pg.Portfolio.Name,
		Grid:        GridHeader(pg.Axes),
		Fingerprint: pg.Axes.Fingerprint(),
		Scenarios:   make([]string, 0, len(pg.Portfolio.Workloads)),
		Cells:       make([]PortfolioCellReport, 0, len(pg.Cells)),
	}
	for _, w := range pg.Portfolio.Workloads {
		r.Scenarios = append(r.Scenarios, w.Name)
	}
	for _, c := range pg.Cells {
		cell := c.Row.Cell
		cr := PortfolioCellReport{
			Index:          cell.Index,
			Size:           cell.TransferSize.String(),
			RTT:            cell.RTT.String(),
			Buffer:         workload.BufferLabel(cell.Buffer),
			CC:             cell.CC.String(),
			Cross:          cell.CrossFraction,
			Concurrency:    cell.Concurrency,
			ParallelFlows:  cell.ParallelFlows,
			WorstS:         c.Row.Worst.Seconds(),
			RateBps:        float64(c.Rate),
			Decisions:      make([]string, 0, len(c.Decisions)),
			Gains:          make([]float64, 0, len(c.Decisions)),
			StreamFraction: c.StreamFraction(),
		}
		for _, d := range c.Decisions {
			cr.Decisions = append(cr.Decisions, d.Decision.Choice.String())
			cr.Gains = append(cr.Gains, d.Decision.Gain)
		}
		r.Cells = append(r.Cells, cr)
	}
	for _, fr := range pg.Frontiers() {
		fl := PortfolioFrontierReport{Scenario: fr.Scenario, Flips: make([]string, 0, len(fr.Flips))}
		for _, f := range fr.Flips {
			fl.Flips = append(fl.Flips, f.String())
		}
		r.Frontiers = append(r.Frontiers, fl)
	}
	return r
}

// WriteJSON archives the portfolio grid as an indented, version-stamped
// JSON document.
func (pg *PortfolioGrid) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pg.Report())
}

// ReadPortfolioReport loads an archived report, rejecting documents that
// do not carry the current PortfolioSchema stamp.
func ReadPortfolioReport(r io.Reader) (*PortfolioReport, error) {
	var rep PortfolioReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("scenario: parsing portfolio report: %w", err)
	}
	if rep.Schema != PortfolioSchema {
		return nil, fmt.Errorf("scenario: portfolio report schema %q, want %q", rep.Schema, PortfolioSchema)
	}
	return &rep, nil
}

// WriteCSV writes the portfolio grid as CSV, one row per (cell,
// scenario) pair, with full-precision numeric columns.
func (pg *PortfolioGrid) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"cell", "size", "rtt", "buffer", "cc", "cross", "concurrency", "parallel_flows",
		"worst_s", "rate_Bps", "scenario", "decision", "gain", "t_local_s", "t_pct_s",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range pg.Cells {
		cell := c.Row.Cell
		for i, d := range c.Decisions {
			row := coordRow(flatColumns, cell,
				f(c.Row.Worst.Seconds()),
				f(float64(c.Rate)),
				pg.Portfolio.Workloads[i].Name,
				d.Decision.Choice.String(),
				f(d.Decision.Gain),
				f(d.Decision.Breakdown.TLocal.Seconds()),
				f(d.Decision.Breakdown.TPct.Seconds()))
			if err := cw.Write(append([]string{strconv.Itoa(cell.Index)}, row...)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
