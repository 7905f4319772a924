// Package scenario loads facility workload portfolios from JSON and runs
// the decision framework over them in bulk — the operational interface a
// facility would actually script against (one file describing every
// beamline workflow, one command returning local/remote/infeasible per
// row).
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/units"
)

// Workload is one JSON entry. All quantity fields take the human
// notation the units package parses ("2GB", "25Gbps", "34TF", "2GB/s").
type Workload struct {
	// Name labels the row in reports.
	Name string `json:"name"`
	// UnitSize is S_unit, e.g. "2GB".
	UnitSize string `json:"unit_size"`
	// ComplexityFLOPPerGB is C in FLOP per GB (the paper's unit).
	ComplexityFLOPPerGB float64 `json:"complexity_flop_per_gb"`
	// Local and Remote are processing rates, e.g. "5TF", "100TF".
	Local  string `json:"local"`
	Remote string `json:"remote"`
	// Bandwidth is the raw link, e.g. "25Gbps".
	Bandwidth string `json:"bandwidth"`
	// TransferRate is the effective rate, e.g. "2GB/s".
	TransferRate string `json:"transfer_rate"`
	// Theta is the file-I/O overhead θ. Absent (nil) means 1, pure
	// streaming; a spelled value is taken as written, so an explicit 0
	// reaches core.Params.Validate and is refused there.
	Theta *float64 `json:"theta,omitempty"`
	// GenerationRate optionally enables the sustained-rate check.
	GenerationRate string `json:"generation_rate,omitempty"`
	// Tier optionally sets the deadline: 1, 2, or 3. 0 is the
	// documented "no deadline", not a default standing in for a value.
	Tier int `json:"tier,omitempty"`
}

// File is the top-level JSON document.
type File struct {
	Workloads []Workload `json:"workloads"`
}

// ErrNoWorkloads is returned for an empty portfolio.
var ErrNoWorkloads = errors.New("scenario: no workloads in file")

// Load parses a portfolio from r.
func Load(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenario: parsing JSON: %w", err)
	}
	if len(f.Workloads) == 0 {
		return nil, ErrNoWorkloads
	}
	return &f, nil
}

// Params converts one workload to model parameters.
func (w Workload) Params() (core.Params, error) {
	var p core.Params
	size, err := units.ParseByteSize(w.UnitSize)
	if err != nil {
		return p, fmt.Errorf("scenario: %s unit_size: %w", w.Name, err)
	}
	local, err := units.ParseFLOPS(w.Local)
	if err != nil {
		return p, fmt.Errorf("scenario: %s local: %w", w.Name, err)
	}
	remote, err := units.ParseFLOPS(w.Remote)
	if err != nil {
		return p, fmt.Errorf("scenario: %s remote: %w", w.Name, err)
	}
	bw, err := units.ParseBitRate(w.Bandwidth)
	if err != nil {
		return p, fmt.Errorf("scenario: %s bandwidth: %w", w.Name, err)
	}
	rate, err := units.ParseByteRate(w.TransferRate)
	if err != nil {
		return p, fmt.Errorf("scenario: %s transfer_rate: %w", w.Name, err)
	}
	theta := 1.0
	if w.Theta != nil {
		theta = *w.Theta
	}
	p = core.Params{
		UnitSize:              size,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(w.ComplexityFLOPPerGB),
		LocalRate:             local,
		RemoteRate:            remote,
		Bandwidth:             bw,
		TransferRate:          rate,
		Theta:                 theta,
	}
	return p, p.Validate()
}

// Model lowers the workload to the decision model's inputs: the
// validated parameters and the optional constraints. Every surface that
// decides a workload (-config rows, portfolios, streamdecide's flags,
// decided requests) lowers through here.
func (w Workload) Model() (core.Params, core.DecideOpts, error) {
	var o core.DecideOpts
	p, err := w.Params()
	if err != nil {
		return p, o, err
	}
	if w.GenerationRate != "" {
		gen, err := units.ParseByteRate(w.GenerationRate)
		if err != nil {
			return p, o, fmt.Errorf("scenario: %s generation_rate: %w", w.Name, err)
		}
		o.GenerationRate = gen
	}
	if w.Tier != 0 {
		t := core.Tier(w.Tier)
		if t.Budget() == 0 {
			return p, o, fmt.Errorf("scenario: %s: unknown tier %d", w.Name, w.Tier)
		}
		o.Deadline = t.Budget()
	}
	return p, o, nil
}

// Row is one decided workload.
type Row struct {
	Workload Workload
	Decision core.Decision
}

// DecideAll runs the decision framework over the whole portfolio.
func DecideAll(f *File) ([]Row, error) {
	if f == nil || len(f.Workloads) == 0 {
		return nil, ErrNoWorkloads
	}
	rows := make([]Row, 0, len(f.Workloads))
	for _, w := range f.Workloads {
		p, o, err := w.Model()
		if err != nil {
			return nil, err
		}
		d, err := core.Decide(p, o)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", w.Name, err)
		}
		rows = append(rows, Row{Workload: w, Decision: d})
	}
	return rows, nil
}

// Render formats decided rows as an aligned table.
func Render(rows []Row) string {
	t := &plot.Table{Header: []string{"Workload", "T_local", "T_pct", "Gain", "Decision", "Why"}}
	for _, r := range rows {
		t.AddRow(
			r.Workload.Name,
			r.Decision.Breakdown.TLocal.Round(time.Millisecond).String(),
			r.Decision.Breakdown.TPct.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", r.Decision.Gain),
			r.Decision.Choice.String(),
			r.Decision.Reason,
		)
	}
	return t.String()
}
