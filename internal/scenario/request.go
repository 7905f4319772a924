package scenario

// Request/response schema for the decided service (internal/service,
// cmd/decided). It lives here, next to the portfolio-file schema and
// AxesSpec, because the service speaks the SAME vocabulary as the
// batch CLIs: a request workload is the -config/-portfolio Workload
// row, a request grid is the -grid axis flags as JSON fields, and a
// portfolio response body is byte-identical to streamdecide's -json
// archive. Keeping the schemas in one package is what makes "the
// service answers exactly what the batch run would print" a structural
// property rather than a test assertion.
//
// The request schema is versioned. Schema "" or "v1" is the original
// flat-link vocabulary and answers byte-identically to what it always
// did; "v2" adds the multi-hop vocabulary (hops, edge_caps, wan_rtts,
// ingress_buffers, prefilter, and the base-grid knobs concurrency /
// parallel_flows / strategy) plus placement attribution in responses.
// A v1 body that uses a v2 field is rejected with a 400 naming the
// field, so no client ever has hop axes silently ignored.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

// GridSpec describes a measured grid in a JSON request the way the
// CLIs' flags do: the scalar base-grid knobs (-gseconds, -bw, -size,
// and since schema v2 the base concurrency/flows/strategy) plus the
// embedded AxesSpec lists. Zero values take the CLI defaults, so an
// empty spec IS `streamdecide -grid` — same axes, same fingerprint,
// same cache cells. Both grid CLIs lower their flags through this
// struct, so a request and a CLI run that describe the same grid are
// the same code path end to end.
type GridSpec struct {
	// DurationS is the congestion experiment duration in seconds
	// (-gseconds; default 3).
	DurationS int `json:"duration_s,omitempty"`
	// Bandwidth is the bottleneck link (-bw; default "25Gbps").
	Bandwidth string `json:"bandwidth,omitempty"`
	// Size is the default transfer-size axis (-size; default "2GB"),
	// replaced entirely when Sizes is set.
	Size string `json:"size,omitempty"`
	// Concurrency is the base concurrency axis when Concs is unset
	// (default 4; schema v2).
	Concurrency int `json:"concurrency,omitempty"`
	// PFlows is the base parallel-flow axis when Flows is unset
	// (default 8; schema v2).
	PFlows int `json:"parallel_flows,omitempty"`
	// Strategy is the spawn strategy: "simultaneous" (default) or
	// "scheduled" (schema v2).
	Strategy string `json:"strategy,omitempty"`
	AxesSpec        // concs/pflows/sizes/rtts/buffers/ccs/crosses + hop axes
}

// V2Fields returns the JSON names of the set fields that require
// schema v2: the hop vocabulary plus the base-grid knobs added with it.
func (s GridSpec) V2Fields() []string {
	out := s.AxesSpec.V2Fields()
	if s.Concurrency != 0 {
		out = append(out, "concurrency")
	}
	if s.PFlows != 0 {
		out = append(out, "parallel_flows")
	}
	if s.Strategy != "" {
		out = append(out, "strategy")
	}
	return out
}

// Axes lowers the spec to workload axes, mirroring the grid CLIs' base
// exactly — defaults included — so a request and a CLI run that
// describe the same grid hit the same cache cells.
func (s GridSpec) Axes() (workload.Axes, error) {
	seconds := s.DurationS
	if seconds == 0 {
		seconds = 3
	}
	// Checked before the multiply below, which wraps past the largest
	// time.Duration.
	if maxS := int(math.MaxInt64 / int64(time.Second)); seconds < 0 || seconds > maxS {
		return workload.Axes{}, fmt.Errorf("scenario: duration_s %d: must be in [1, %d]", seconds, maxS)
	}
	bwStr := s.Bandwidth
	if bwStr == "" {
		bwStr = "25Gbps"
	}
	bw, err := units.ParseBitRate(bwStr)
	if err != nil {
		return workload.Axes{}, fmt.Errorf("scenario: bandwidth: %w", err)
	}
	sizeStr := s.Size
	if sizeStr == "" {
		sizeStr = "2GB"
	}
	size, err := units.ParseByteSize(sizeStr)
	if err != nil {
		return workload.Axes{}, fmt.Errorf("scenario: size: %w", err)
	}
	conc := s.Concurrency
	if conc == 0 {
		conc = 4
	}
	flows := s.PFlows
	if flows == 0 {
		flows = 8
	}
	strat := workload.SpawnSimultaneous
	switch s.Strategy {
	case "", "simultaneous":
	case "scheduled":
		strat = workload.SpawnScheduled
	default:
		return workload.Axes{}, fmt.Errorf("scenario: unknown strategy %q (want simultaneous or scheduled)", s.Strategy)
	}
	net := tcpsim.DefaultConfig()
	net.Capacity = bw
	base := workload.Axes{
		Duration:      time.Duration(seconds) * time.Second,
		Concurrencies: []int{conc},
		ParallelFlows: []int{flows},
		TransferSizes: []units.ByteSize{size},
		Strategy:      strat,
		Net:           net,
	}
	return s.AxesSpec.Apply(base)
}

// validateSchema enforces the request schema contract: "" and "v1" are
// the original vocabulary and must not carry any v2 field; "v2" accepts
// everything; anything else is unknown. v2Fields are the JSON names of
// the set v2-only fields, reported one at a time so the 400 body tells
// the client exactly which field needs the upgrade.
func validateSchema(schema string, v2Fields []string) error {
	switch schema {
	case "", "v1":
		if len(v2Fields) > 0 {
			return fmt.Errorf("scenario: field %q requires \"schema\":\"v2\"", v2Fields[0])
		}
		return nil
	case "v2":
		return nil
	default:
		return fmt.Errorf("scenario: unknown schema %q (want \"v1\" or \"v2\")", schema)
	}
}

// DecideRequest is the POST /v1/decide body: one workload, decided
// either purely from the model (Cell nil; the workload carries its own
// bandwidth and transfer_rate, like a -config row) or at one measured
// grid cell (Cell set; the cell's simulation supplies the transfer
// side, like one cell of a -portfolio run, and the spec must lower to
// exactly one cell).
type DecideRequest struct {
	// Schema selects the request vocabulary: "" or "v1" (flat link),
	// "v2" (multi-hop paths and placement).
	Schema   string    `json:"schema,omitempty"`
	Workload Workload  `json:"workload"`
	Cell     *GridSpec `json:"cell,omitempty"`
	// Prefilter is the edge-prefilter survival fraction for placement
	// decisions over a multi-hop cell (0 disables; schema v2).
	Prefilter float64 `json:"prefilter,omitempty"`
}

// v2Fields lists the set v2-only fields of the whole request.
func (r DecideRequest) v2Fields() []string {
	var out []string
	if r.Cell != nil {
		out = append(out, r.Cell.V2Fields()...)
	}
	if r.Prefilter != 0 {
		out = append(out, "prefilter")
	}
	return out
}

// Lower validates the request and resolves it to the workload to decide
// plus, in cell mode, the single-cell axes to measure (nil in model
// mode). In cell mode the measured fields are placeholders the cell
// overrides, so the request may omit them.
func (r DecideRequest) Lower() (Workload, *workload.Axes, error) {
	w := r.Workload
	if w.Name == "" {
		w.Name = "workload"
	}
	if err := validateSchema(r.Schema, r.v2Fields()); err != nil {
		return w, nil, err
	}
	if r.Cell == nil {
		return w, nil, nil
	}
	a, err := r.Cell.Axes()
	if err != nil {
		return w, nil, err
	}
	// Reject inconsistent axes and any value a cell cannot run here, as
	// a request error, rather than inside the grid cache after the
	// caller has taken an engine slot.
	if err := a.Validate(); err != nil {
		return w, nil, err
	}
	if n := a.Size(); n != 1 {
		return w, nil, fmt.Errorf("scenario: cell spec lowers to %d cells, want exactly 1 (POST /v1/portfolio decides whole grids)", n)
	}
	// DecidePortfolio replaces the transfer side per cell (bandwidth =
	// the grid link, transfer_rate = the measured effective rate), so a
	// cell-mode request may omit both; fill parseable placeholders.
	if w.Bandwidth == "" {
		w.Bandwidth = "25Gbps"
	}
	if w.TransferRate == "" {
		w.TransferRate = "1GB/s"
	}
	// Validate the workload NOW, before the caller spends a simulation
	// on a request whose decision step was always going to fail.
	if err := validateWorkload(w); err != nil {
		return w, nil, err
	}
	return w, &a, nil
}

// validateWorkload runs a workload through the same parsers the
// decision step uses, so malformed requests fail before any engine run.
func validateWorkload(w Workload) error {
	if _, err := w.Params(); err != nil {
		return err
	}
	_, err := w.opts()
	return err
}

// MeasuredCell carries the simulated transfer measurements backing a
// cell-mode decision, named like the portfolio archive's cell fields.
type MeasuredCell struct {
	WorstS      float64 `json:"worst_s"`
	SSS         float64 `json:"sss"`
	Utilization float64 `json:"utilization"`
	RateBps     float64 `json:"rate_Bps"`
}

// CacheStatsJSON is workload.CacheStats in a JSON response, field names
// matching the CLI cache-stats line (cells=… memo=… …) token for token.
// Disk is always 0, like the line's disk= token: both are kept so the
// response format does not change.
type CacheStatsJSON struct {
	Cells      int64 `json:"cells"`
	Memo       int64 `json:"memo"`
	Disk       int64 `json:"disk"`
	Segment    int64 `json:"segment"`
	EngineRuns int64 `json:"engine_runs"`
	LockWaits  int64 `json:"lock_waits"`
}

// NewCacheStatsJSON converts counter values to the response form.
func NewCacheStatsJSON(st workload.CacheStats) CacheStatsJSON {
	return CacheStatsJSON{
		Cells:      st.CellsRequested,
		Memo:       st.CellsFromMemo,
		Segment:    st.CellsFromSegment,
		EngineRuns: st.EngineRuns,
		LockWaits:  st.LockWaits,
	}
}

// HopReport is one hop's attribution in a v2 decide response, mirroring
// core.HopAttribution with the archive's numeric conventions.
type HopReport struct {
	Name        string  `json:"name"`
	RateBps     float64 `json:"rate_Bps"`
	Bottleneck  bool    `json:"bottleneck"`
	SustainedOK bool    `json:"sustained_ok"`
}

// DecideResponse is the POST /v1/decide reply. Numeric fields use the
// portfolio CSV's names and units (gain, t_local_s, t_pct_s) so the two
// surfaces stay column-compatible. The placement fields appear only for
// multi-hop cells, which only a schema-v2 request can describe — every
// v1 response therefore stays byte-identical to the original contract.
type DecideResponse struct {
	Workload string  `json:"workload"`
	Decision string  `json:"decision"`
	Reason   string  `json:"reason"`
	Gain     float64 `json:"gain"`
	TLocalS  float64 `json:"t_local_s"`
	TPctS    float64 `json:"t_pct_s"`
	// Placement is the multi-hop where-to-process verdict
	// (stream-direct / edge-prefilter / store-forward); multi-hop cell
	// mode only.
	Placement       string `json:"placement,omitempty"`
	PlacementReason string `json:"placement_reason,omitempty"`
	// Hops attributes per-hop residual rate and feasibility, in path
	// order; multi-hop cell mode only.
	Hops []HopReport `json:"hops,omitempty"`
	// Measured is present in cell mode only.
	Measured *MeasuredCell `json:"measured,omitempty"`
	// Cache reports how THIS request's grid cells were served (cell
	// mode only; a model-only decision touches no cache).
	Cache *CacheStatsJSON `json:"cache,omitempty"`
}

// newDecideResponse shapes one decision as a response.
func newDecideResponse(name string, d core.Decision) *DecideResponse {
	return &DecideResponse{
		Workload: name,
		Decision: d.Choice.String(),
		Reason:   d.Reason,
		Gain:     d.Gain,
		TLocalS:  d.Breakdown.TLocal.Seconds(),
		TPctS:    d.Breakdown.TPct.Seconds(),
	}
}

// DecideModel answers a model-only request: the workload's own numbers
// through core.Decide, exactly the -config path.
func DecideModel(w Workload) (*DecideResponse, error) {
	p, err := w.Params()
	if err != nil {
		return nil, err
	}
	o, err := w.opts()
	if err != nil {
		return nil, err
	}
	d, err := core.Decide(p, o)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", w.Name, err)
	}
	return newDecideResponse(w.Name, d), nil
}

// hopParams lowers a cell's hop chain to the model's topology-agnostic
// form: the grid's path with the cell's hop-axis coordinates applied,
// exactly as the simulator composed the cell's bottleneck.
func hopParams(p tcpsim.Path, c workload.GridCell) []core.HopParams {
	out := make([]core.HopParams, 0, len(p))
	for _, h := range p.WithAxes(c.EdgeCap, c.WANRTT, c.IngressBuffer) {
		out = append(out, core.HopParams{
			Name:          h.Role.String(),
			Capacity:      h.Capacity,
			CrossFraction: h.CrossFraction,
		})
	}
	return out
}

// DecideAtCell answers a cell-mode request against an already-measured
// one-cell grid, with DecidePortfolio's exact semantics (the workload
// keeps its own unit size; the cell supplies bandwidth and rate) so a
// service decision and the batch portfolio decision for the same cell
// are the same computation. On a multi-hop cell the response
// additionally carries the placement verdict and per-hop attribution;
// prefilter is the edge-prefilter survival fraction (0 disables).
func DecideAtCell(w Workload, g *workload.GridResult, prefilter float64) (*DecideResponse, error) {
	pf, err := NewPortfolio(w.Name, &File{Workloads: []Workload{w}})
	if err != nil {
		return nil, err
	}
	pg, err := DecidePortfolio(pf, g)
	if err != nil {
		return nil, err
	}
	c := pg.Cells[0]
	resp := newDecideResponse(w.Name, c.Decisions[0].Decision)
	resp.Measured = &MeasuredCell{
		WorstS:      c.Row.Worst.Seconds(),
		SSS:         c.Row.SSS,
		Utilization: c.Row.Utilization,
		RateBps:     float64(c.Rate),
	}
	if len(g.Axes.Path) > 1 {
		opts, err := w.opts()
		if err != nil {
			return nil, err
		}
		pd, err := core.DecidePlacement(c.Decisions[0].Params, hopParams(g.Axes.Path, c.Row.Cell),
			core.PlacementOpts{DecideOpts: opts, PrefilterFactor: prefilter})
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: placement: %w", w.Name, err)
		}
		resp.Placement = pd.Placement.String()
		resp.PlacementReason = pd.Reason
		resp.Hops = make([]HopReport, 0, len(pd.Hops))
		for _, h := range pd.Hops {
			resp.Hops = append(resp.Hops, HopReport{
				Name:        h.Name,
				RateBps:     float64(h.ResidualRate),
				Bottleneck:  h.Bottleneck,
				SustainedOK: h.SustainedOK,
			})
		}
	}
	return resp, nil
}

// PortfolioRequest is the POST /v1/portfolio body: a whole portfolio
// document (the -config schema, inline) decided over a measured grid.
// The response body is the PortfolioGrid JSON archive — byte-identical
// to `streamdecide -portfolio … -grid … -json` for the same inputs.
type PortfolioRequest struct {
	// Schema selects the request vocabulary, exactly as in
	// DecideRequest.
	Schema string `json:"schema,omitempty"`
	// Name labels the portfolio like the CLI's file base name does;
	// empty defaults to "portfolio".
	Name      string   `json:"name,omitempty"`
	Portfolio File     `json:"portfolio"`
	Grid      GridSpec `json:"grid"`
}

// Lower validates the request into a named portfolio and the grid axes
// to measure. Every workload is validated up front, for the same
// fail-before-simulating reason as DecideRequest.Lower.
func (r PortfolioRequest) Lower() (*Portfolio, workload.Axes, error) {
	if err := validateSchema(r.Schema, r.Grid.V2Fields()); err != nil {
		return nil, workload.Axes{}, err
	}
	pf, err := NewPortfolio(r.Name, &r.Portfolio)
	if err != nil {
		return nil, workload.Axes{}, err
	}
	for _, w := range pf.Workloads {
		if err := validateWorkload(w); err != nil {
			return nil, workload.Axes{}, err
		}
	}
	a, err := r.Grid.Axes()
	if err != nil {
		return nil, workload.Axes{}, err
	}
	if err := a.Validate(); err != nil {
		return nil, workload.Axes{}, err
	}
	return pf, a, nil
}
