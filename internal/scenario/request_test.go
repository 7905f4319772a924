package scenario

// Request-schema versioning: GridSpec lowering with the v2 knobs, the
// v1/v2 field gate, and placement attribution in cell-mode responses.
// The service-level contract (HTTP status codes, byte-identical v1
// bodies) lives in internal/service; these tests pin the scenario-layer
// behavior those handlers delegate to.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
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
	file := File{Workloads: []Workload{portfolioWorkload()}}
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

// overflowPortfolioBody is a /v1/portfolio body whose axes multiply to
// 1024⁶·16 = 2⁶⁴ cells.
func overflowPortfolioBody() string {
	list := func(n int, format func(i int) string) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = format(i)
		}
		return strings.Join(vals, ",")
	}
	return fmt.Sprintf(`{"grid":{"duration_s":1,"concs":%q,"pflows":%q,"sizes":%q,"rtts":%q,"buffers":%q,"ccs":%q,"crosses":%q},`+
		`"portfolio":{"workloads":[{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17e12,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}]}}`,
		list(1024, func(i int) string { return strconv.Itoa(i + 1) }),
		list(1024, func(i int) string { return strconv.Itoa(i%999 + 1) }),
		list(1024, func(i int) string { return fmt.Sprintf("%dMB", i+1) }),
		list(1024, func(i int) string { return fmt.Sprintf("%dms", i+1) }),
		list(1024, func(i int) string { return fmt.Sprintf("%dKB", i+1) }),
		list(1024, func(i int) string { return [...]string{"reno", "cubic"}[i%2] }),
		list(16, func(i int) string { return strconv.FormatFloat(float64(i)/100, 'g', -1, 64) }))
}

// TestPortfolioRequestRejectsCellCountOverflow: a ~32 KB body whose
// axes multiply to 1024⁶·16 = 2⁶⁴ cells is a request error. An unchecked
// product wraps to exactly 0 and passes every cell budget, so the
// server would go on to enumerate the grid; the test therefore stops at
// Lower and Size and never enumerates cells.
func TestPortfolioRequestRejectsCellCountOverflow(t *testing.T) {
	body := overflowPortfolioBody()
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

// TestLowerBoundsCellFlows: a cell whose duration_s × concurrency ×
// parallel flows exceeds workload.MaxCellFlows is a request error, in both
// request kinds. Each rejected request here would otherwise build
// billions of flow specs before the engine's first round, so the test
// stops at Lower.
func TestLowerBoundsCellFlows(t *testing.T) {
	for name, cell := range map[string]GridSpec{
		"duration":    {DurationS: 1e9},
		"concurrency": {AxesSpec: AxesSpec{Concs: "100000000"}},
		"one past":    {DurationS: workload.MaxCellFlows/32 + 1},
	} {
		_, _, err := DecideRequest{Workload: cellWorkload(), Cell: &cell}.Lower()
		if err == nil || !strings.Contains(err.Error(), "flow limit per cell") {
			t.Errorf("decide %s: err = %v, want the per-cell flow limit", name, err)
		}
		pr := PortfolioRequest{Portfolio: File{Workloads: []Workload{portfolioWorkload()}}, Grid: cell}
		if _, _, err := pr.Lower(); err == nil || !strings.Contains(err.Error(), "flow limit per cell") {
			t.Errorf("portfolio %s: err = %v, want the per-cell flow limit", name, err)
		}
	}
	// The largest cell of a grid counts, not its first.
	pr := PortfolioRequest{Portfolio: File{Workloads: []Workload{portfolioWorkload()}},
		Grid: GridSpec{DurationS: 1, AxesSpec: AxesSpec{Concs: "2,100000000"}}}
	if _, _, err := pr.Lower(); err == nil || !strings.Contains(err.Error(), "flow limit per cell") {
		t.Errorf("portfolio with one oversized cell: err = %v", err)
	}
	// A cell of exactly workload.MaxCellFlows flows (2048 s × 4 × 8) is accepted.
	if _, _, err := (DecideRequest{Workload: cellWorkload(), Cell: &GridSpec{DurationS: workload.MaxCellFlows / 32}}).Lower(); err != nil {
		t.Errorf("cell at the bound: %v", err)
	}
}

// portfolioWorkload is cellWorkload with the transfer side a portfolio
// row carries.
func portfolioWorkload() Workload {
	w := cellWorkload()
	w.Bandwidth = "25Gbps"
	w.TransferRate = "2GB/s"
	return w
}

// decodeBody decodes a request body the way the service does: unknown
// fields and trailing data are errors.
func decodeBody(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// gridV2Set lists the JSON names of a grid spec's set v2-only fields,
// written out here independently of the axis table.
func gridV2Set(g GridSpec) []string {
	var out []string
	for name, set := range map[string]bool{
		"hops":            g.Hops != "",
		"edge_caps":       g.EdgeCaps != "",
		"wan_rtts":        g.WANRTTs != "",
		"ingress_buffers": g.IngressBuffers != "",
		"concurrency":     g.Concurrency != 0,
		"parallel_flows":  g.PFlows != 0,
		"strategy":        g.Strategy != "",
	} {
		if set {
			out = append(out, name)
		}
	}
	return out
}

// checkSchemaGate asserts that a v1 (or unversioned) request setting a
// v2 field was rejected with an error naming one of those fields.
func checkSchemaGate(t *testing.T, schema string, v2 []string, err error) {
	t.Helper()
	if (schema != "" && schema != "v1") || len(v2) == 0 {
		return
	}
	if err == nil {
		t.Fatalf("schema %q request with v2 fields %v accepted", schema, v2)
	}
	for _, name := range v2 {
		if strings.Contains(err.Error(), `"`+name+`"`) {
			return
		}
	}
	t.Fatalf("schema %q request with v2 fields %v: error %q names none of them", schema, v2, err)
}

// checkCells asserts that every cell of accepted axes passes its own
// experiment's validation, the rule set a cell meets when it runs.
// Grids over 4,096 cells, the server's default budget, are not
// enumerated.
func checkCells(t *testing.T, a workload.Axes) {
	t.Helper()
	if a.Size() > 4096 {
		return
	}
	n := a
	n.Net = a.Path.Effective(a.Net) // the one field of normalized axes Experiment reads that Cells leaves raw
	for _, c := range a.Cells() {
		if err := n.Experiment(c).Validate(); err != nil {
			t.Fatalf("accepted grid holds a cell its experiment rejects: %v\ncell %+v", err, c)
		}
	}
}

// FuzzLowerRequest lowers arbitrary bodies as both request kinds. Lower
// never panics; an accepted request is a valid grid every cell of which
// its experiment accepts (exactly one cell for /v1/decide); and a v1
// body that sets a v2 field is rejected naming it. Lower runs no
// engine, so any body is cheap to try.
func FuzzLowerRequest(f *testing.F) {
	example, err := os.ReadFile("../../examples/portfolio/portfolio.json")
	if err != nil {
		f.Fatal(err)
	}
	bodies, err := os.ReadFile("testdata/request_bodies.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range strings.Split(string(bodies), "\n") {
		if body != "" && !strings.HasPrefix(body, "#") {
			f.Add([]byte(body))
		}
	}
	for _, body := range []string{
		overflowPortfolioBody(),
		`{"name":"portfolio","grid":{"duration_s":1,"concs":"2,4","rtts":"8ms,64ms","crosses":"0,0.3"},"portfolio":` + string(example) + `}`,
		`{"name":"portfolio","grid":{"duration_s":1,"concs":"1,0"},"portfolio":` + string(example) + `}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var dr DecideRequest
		if decodeBody(body, &dr) == nil {
			_, a, err := dr.Lower()
			var v2 []string
			if dr.Cell != nil {
				v2 = gridV2Set(*dr.Cell)
			}
			if dr.Prefilter != 0 {
				v2 = append(v2, "prefilter")
			}
			checkSchemaGate(t, dr.Schema, v2, err)
			if err == nil && a != nil {
				if err := a.Validate(); err != nil {
					t.Fatalf("accepted cell fails Validate: %v", err)
				}
				if n := a.Size(); n != 1 {
					t.Fatalf("accepted cell request lowers to %d cells", n)
				}
				checkCells(t, *a)
			}
		}
		var pr PortfolioRequest
		if decodeBody(body, &pr) == nil {
			_, a, err := pr.Lower()
			checkSchemaGate(t, pr.Schema, gridV2Set(pr.Grid), err)
			if err == nil {
				if err := a.Validate(); err != nil {
					t.Fatalf("accepted portfolio grid fails Validate: %v", err)
				}
				checkCells(t, a)
			}
		}
	})
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
