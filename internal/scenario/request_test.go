package scenario

// Request-schema versioning: GridSpec lowering with the v2 knobs, the
// v1/v2 field gate, and placement attribution in cell-mode responses.
// The service-level contract (HTTP status codes, byte-identical v1
// bodies) lives in internal/service; these tests pin the scenario-layer
// behavior those handlers delegate to.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/workload"
)

func cellWorkload() Workload {
	return Workload{
		Name:                "w",
		UnitSize:            "2GB",
		ComplexityFLOPPerGB: 17e12,
		Local:               "5TF",
		Remote:              "100TF",
		Theta:               1,
	}
}

func TestGridSpecV2Fields(t *testing.T) {
	if got := (GridSpec{DurationS: 1, Bandwidth: "10Gbps", Size: "1GB",
		AxesSpec: AxesSpec{RTTs: "8ms"}}).V2Fields(); len(got) != 0 {
		t.Errorf("v1 spec flagged v2 fields: %v", got)
	}
	s := GridSpec{
		Concurrency: 2,
		PFlows:      4,
		Strategy:    "scheduled",
		AxesSpec:    AxesSpec{Hops: twoHopSpec, EdgeCaps: "10Gbps"},
	}
	got := strings.Join(s.V2Fields(), ",")
	if got != "hops,edge_caps,concurrency,parallel_flows,strategy" {
		t.Errorf("V2Fields = %q", got)
	}
}

func TestGridSpecAxesV2Knobs(t *testing.T) {
	a, err := GridSpec{
		DurationS:   2,
		Concurrency: 3,
		PFlows:      5,
		Strategy:    "scheduled",
		AxesSpec:    AxesSpec{Hops: twoHopSpec, EdgeCaps: "10Gbps,60Gbps"},
	}.Axes()
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != 2*time.Second || a.Concurrencies[0] != 3 || a.ParallelFlows[0] != 5 {
		t.Errorf("base knobs not lowered: %+v", a)
	}
	if a.Strategy != workload.SpawnScheduled {
		t.Errorf("Strategy = %v", a.Strategy)
	}
	if len(a.Path) != 2 || len(a.EdgeCaps) != 2 {
		t.Errorf("hop axes not lowered: path %v ecaps %v", a.Path, a.EdgeCaps)
	}
	if _, err := (GridSpec{Strategy: "fifo"}).Axes(); err == nil ||
		!strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("bad strategy error = %v", err)
	}
}

func TestDecideRequestSchemaGate(t *testing.T) {
	// v2 fields under v1 (or absent) schema are rejected by field name.
	for field, req := range map[string]DecideRequest{
		"hops":           {Workload: cellWorkload(), Cell: &GridSpec{AxesSpec: AxesSpec{Hops: twoHopSpec}}},
		"edge_caps":      {Workload: cellWorkload(), Cell: &GridSpec{AxesSpec: AxesSpec{EdgeCaps: "10Gbps"}}},
		"concurrency":    {Workload: cellWorkload(), Cell: &GridSpec{Concurrency: 2}},
		"parallel_flows": {Workload: cellWorkload(), Cell: &GridSpec{PFlows: 4}},
		"strategy":       {Workload: cellWorkload(), Cell: &GridSpec{Strategy: "scheduled"}},
		"prefilter":      {Workload: cellWorkload(), Cell: &GridSpec{}, Prefilter: 0.25},
	} {
		for _, schema := range []string{"", "v1"} {
			req.Schema = schema
			_, _, err := req.Lower()
			if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) ||
				!strings.Contains(err.Error(), `"schema":"v2"`) {
				t.Errorf("schema %q with %s: err = %v", schema, field, err)
			}
		}
		// The same body under v2 is accepted — once it is a valid grid:
		// edge_caps alone sweeps a hop that no path has, which Lower
		// rejects with the grid validator's message.
		req.Schema = "v2"
		if field == "edge_caps" {
			want := "workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path"
			if _, _, err := req.Lower(); err == nil || err.Error() != want {
				t.Errorf("v2 with edge_caps and no hops: err = %v, want %q", err, want)
			}
			req.Cell = &GridSpec{AxesSpec: AxesSpec{Hops: twoHopSpec, EdgeCaps: "10Gbps"}}
		}
		if _, _, err := req.Lower(); err != nil {
			t.Errorf("v2 with %s: %v", field, err)
		}
	}
	// Unknown schemas are rejected outright.
	if _, _, err := (DecideRequest{Schema: "v3", Workload: cellWorkload()}).Lower(); err == nil ||
		!strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("unknown schema err = %v", err)
	}
	// Plain v1 bodies keep working under both spellings.
	for _, schema := range []string{"", "v1"} {
		req := DecideRequest{Schema: schema, Workload: cellWorkload(), Cell: &GridSpec{DurationS: 1}}
		if _, _, err := req.Lower(); err != nil {
			t.Errorf("v1 body with schema %q: %v", schema, err)
		}
	}
}

func TestPortfolioRequestSchemaGate(t *testing.T) {
	file := File{Workloads: []Workload{func() Workload {
		w := cellWorkload()
		w.Bandwidth = "25Gbps"
		w.TransferRate = "2GB/s"
		return w
	}()}}
	req := PortfolioRequest{
		Portfolio: file,
		Grid:      GridSpec{DurationS: 1, AxesSpec: AxesSpec{Hops: twoHopSpec, WANRTTs: "20ms,60ms"}},
	}
	if _, _, err := req.Lower(); err == nil || !strings.Contains(err.Error(), `"hops"`) {
		t.Errorf("v1 portfolio with hops: err = %v", err)
	}
	req.Schema = "v2"
	pf, a, err := req.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if pf.Name != "portfolio" || len(a.Path) != 2 || len(a.WANRTTs) != 2 {
		t.Errorf("lowered: name %q path %v wrtts %v", pf.Name, a.Path, a.WANRTTs)
	}
}

// TestPortfolioRequestRejectsCellCountOverflow: a ~32 KB body whose
// axes multiply to 1024⁶·16 = 2⁶⁴ cells is a request error. An unchecked
// product wraps to exactly 0 and passes every cell budget, so the
// server would go on to enumerate the grid; the test therefore stops at
// Lower and Size and never enumerates cells.
func TestPortfolioRequestRejectsCellCountOverflow(t *testing.T) {
	list := func(n int, format func(i int) string) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = format(i)
		}
		return strings.Join(vals, ",")
	}
	body := fmt.Sprintf(`{"grid":{"duration_s":1,"concs":%q,"pflows":%q,"sizes":%q,"rtts":%q,"buffers":%q,"ccs":%q,"crosses":%q},`+
		`"portfolio":{"workloads":[{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17e12,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}]}}`,
		list(1024, func(i int) string { return strconv.Itoa(i + 1) }),
		list(1024, func(i int) string { return strconv.Itoa(i%999 + 1) }),
		list(1024, func(i int) string { return fmt.Sprintf("%dMB", i+1) }),
		list(1024, func(i int) string { return fmt.Sprintf("%dms", i+1) }),
		list(1024, func(i int) string { return fmt.Sprintf("%dKB", i+1) }),
		list(1024, func(i int) string { return [...]string{"reno", "cubic"}[i%2] }),
		list(16, func(i int) string { return strconv.FormatFloat(float64(i)/100, 'g', -1, 64) }))
	var req PortfolioRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, a, err := req.Lower()
	if err == nil {
		t.Fatalf("Lower accepted a %d-byte body whose grid Size() reads %d cells", len(body), a.Size())
	}
	if !strings.Contains(err.Error(), "cell count overflows int") {
		t.Fatalf("Lower error = %v, want the cell-count overflow", err)
	}
}

// TestDecideAtCellPlacement: a v2 single-cell multi-hop request carries
// the placement verdict and per-hop attribution; a flat cell does not.
func TestDecideAtCellPlacement(t *testing.T) {
	hopAxes, err := GridSpec{DurationS: 1, AxesSpec: AxesSpec{Hops: twoHopSpec}}.Axes()
	if err != nil {
		t.Fatal(err)
	}
	if hopAxes.Size() != 1 {
		t.Fatalf("hop cell spec lowers to %d cells", hopAxes.Size())
	}
	g, err := workload.RunGridParallel(hopAxes, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := cellWorkload()
	w.Bandwidth = "25Gbps"
	w.TransferRate = "1GB/s"
	resp, err := DecideAtCell(w, g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Placement == "" || resp.PlacementReason == "" {
		t.Errorf("multi-hop response missing placement: %+v", resp)
	}
	if len(resp.Hops) != 2 || resp.Hops[0].Name != "edge" || resp.Hops[1].Name != "wan" {
		t.Errorf("hop attribution = %+v", resp.Hops)
	}
	bottlenecks := 0
	for _, h := range resp.Hops {
		if h.RateBps <= 0 {
			t.Errorf("hop %s residual rate %v", h.Name, h.RateBps)
		}
		if h.Bottleneck {
			bottlenecks++
		}
	}
	if bottlenecks != 1 {
		t.Errorf("bottleneck hops = %d, want 1", bottlenecks)
	}
	// The measured decision itself must match the portfolio pipeline's
	// judgment against the composed bottleneck (10G edge).
	if resp.Measured == nil || units.BitRate(0) == cellCapacity(g.Axes, g.Rows[0].Cell) {
		t.Fatalf("measured block missing: %+v", resp)
	}

	// Flat cells answer without any placement fields, keeping v1
	// responses byte-identical.
	flatAxes, err := GridSpec{DurationS: 1}.Axes()
	if err != nil {
		t.Fatal(err)
	}
	fg, err := workload.RunGridParallel(flatAxes, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := DecideAtCell(w, fg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Placement != "" || flat.PlacementReason != "" || flat.Hops != nil {
		t.Errorf("flat response grew placement fields: %+v", flat)
	}
}
