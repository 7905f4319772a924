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
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

// GridSpec describes a measured grid in a JSON request the way the
// CLIs' flags do: the scalar base-grid knobs (-gseconds, -bw, -size,
// and since schema v2 the base concurrency/flows/strategy) plus the
// embedded AxesSpec lists. A knob a body leaves out takes the CLI
// default, so an empty spec IS `streamdecide -grid` — same axes, same
// fingerprint, same cache cells. A spelled value is taken as written:
// an explicit 0 reaches Axes.Validate and is refused there rather than
// read as "unset". The string knobs (bandwidth, size, strategy) read
// empty as absent, because an empty string is a value of none of them.
// Both grid CLIs lower their flags through this struct, so a request
// and a CLI run that describe the same grid are the same code path end
// to end.
type GridSpec struct {
	// DurationS is the congestion experiment duration in seconds
	// (-gseconds; default 3). A body that omits it decodes as 3 (see
	// UnmarshalJSON); a Go literal states it.
	DurationS int `json:"duration_s"`
	// Bandwidth is the bottleneck link (-bw; default "25Gbps").
	Bandwidth string `json:"bandwidth,omitempty"`
	// Size is the default transfer-size axis (-size; default "2GB"),
	// replaced entirely when Sizes is set.
	Size string `json:"size,omitempty"`
	// Concurrency is the base concurrency axis when Concs is unset
	// (nil = default 4; schema v2).
	Concurrency *int `json:"concurrency,omitempty"`
	// PFlows is the base parallel-flow axis when Flows is unset
	// (nil = default 8; schema v2).
	PFlows *int `json:"parallel_flows,omitempty"`
	// Strategy is the spawn strategy: "simultaneous" (default) or
	// "scheduled" (schema v2).
	Strategy string `json:"strategy,omitempty"`
	AxesSpec        // concs/pflows/sizes/rtts/buffers/ccs/crosses + hop axes
}

// defaultDurationS is the duration a body that omits duration_s gets,
// -gseconds's default.
const defaultDurationS = 3

// UnmarshalJSON decodes a spec over the default duration, so a body
// that leaves duration_s out gets 3 s and one that spells 0 keeps its
// 0. Unknown keys stay errors, as everywhere in a request body.
func (s *GridSpec) UnmarshalJSON(data []byte) error {
	type plain GridSpec // the same fields without this method
	p := plain{DurationS: defaultDurationS}
	if err := decodeStrict(data, &p, s); err != nil {
		return err
	}
	*s = GridSpec(p)
	return nil
}

// decodeStrict decodes data into p, the method-free copy a decode hook
// of v decodes into, refusing unknown keys as the service's decoder
// does. A type error names v's type, not the copy's.
func decodeStrict(data []byte, p, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(p)
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		copyT, realT := reflect.TypeOf(p).Elem(), reflect.TypeOf(v).Elem()
		if te.Struct == copyT.Name() {
			te.Struct = realT.Name()
		}
		if te.Type == copyT {
			te.Type = realT
		}
	}
	return err
}

// V2Fields returns the JSON names of the set fields that require
// schema v2: the hop vocabulary plus the base-grid knobs added with it.
func (s GridSpec) V2Fields() []string {
	out := s.AxesSpec.V2Fields()
	if s.Concurrency != nil {
		out = append(out, "concurrency")
	}
	if s.PFlows != nil {
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
	// Checked before the multiply below, which wraps past the largest
	// time.Duration.
	if maxS := int(math.MaxInt64 / int64(time.Second)); s.DurationS < 1 || s.DurationS > maxS {
		return workload.Axes{}, fmt.Errorf("scenario: duration_s %d: must be in [1, %d]", s.DurationS, maxS)
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
	conc, flows := 4, 8
	if s.Concurrency != nil {
		conc = *s.Concurrency
	}
	if s.PFlows != nil {
		flows = *s.PFlows
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
		Duration:      time.Duration(s.DurationS) * time.Second,
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
	// Validate the workload NOW, through the lowering the decision step
	// uses, before the caller spends a simulation on a request whose
	// decision step was always going to fail.
	if _, _, err := w.Model(); err != nil {
		return w, nil, err
	}
	return w, &a, nil
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
	p, o, err := w.Model()
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
		_, opts, err := w.Model()
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
	Name      string `json:"name,omitempty"`
	Portfolio File   `json:"portfolio"`
	// Grid is the grid to measure. A body without it measures the
	// default grid, as "grid":{} does (see UnmarshalJSON).
	Grid GridSpec `json:"grid"`
}

// UnmarshalJSON decodes a request over the default grid, so a body that
// leaves "grid" out measures what "grid":{} measures, and marshalling
// the result writes the duration it got.
func (r *PortfolioRequest) UnmarshalJSON(data []byte) error {
	type plain PortfolioRequest // the same fields without this method
	p := plain{Grid: GridSpec{DurationS: defaultDurationS}}
	if err := decodeStrict(data, &p, r); err != nil {
		return err
	}
	*r = PortfolioRequest(p)
	return nil
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
		if _, _, err := w.Model(); err != nil {
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
