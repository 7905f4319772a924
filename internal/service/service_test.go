package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// testSpec is the one-cell grid the tests measure: 1 s at concurrency
// 2 over 2 flows of 0.5GB, with the RTT axis selecting distinct cells.
func testSpec(rtts string) *scenario.GridSpec {
	return &scenario.GridSpec{
		DurationS: 1,
		Size:      "0.5GB",
		AxesSpec:  scenario.AxesSpec{Concs: "2", Flows: "2", RTTs: rtts},
	}
}

// testWorkload carries a full transfer side, so it works in model mode
// as well as cell mode.
func testWorkload() scenario.Workload {
	return scenario.Workload{
		Name:                "ptycho",
		UnitSize:            "2GB",
		ComplexityFLOPPerGB: 17e12,
		Local:               "5TF",
		Remote:              "100TF",
		Bandwidth:           "25Gbps",
		TransferRate:        "2GB/s",
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post sends a JSON body and returns the response with its body read.
func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// postDecide sends a decide request and decodes the 200 response.
func postDecide(t *testing.T, base string, req scenario.DecideRequest) scenario.DecideResponse {
	t.Helper()
	resp, data := post(t, base+"/v1/decide", marshal(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: status %d: %s", resp.StatusCode, data)
	}
	var out scenario.DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decide: decoding response: %v\n%s", err, data)
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// TestDecideModelMatchesCore: a model-only request is the -config path
// over HTTP — same numbers, no cache, no measured block.
func TestDecideModelMatchesCore(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: ""})
	got := postDecide(t, ts.URL, scenario.DecideRequest{Workload: testWorkload()})

	want, err := scenario.DecideModel(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if got.Decision != want.Decision || got.Gain != want.Gain ||
		got.TLocalS != want.TLocalS || got.TPctS != want.TPctS {
		t.Fatalf("served decision %+v differs from direct model decision %+v", got, want)
	}
	if got.Measured != nil || got.Cache != nil {
		t.Fatal("model-only response carries measured/cache blocks")
	}
}

// TestDecideCellColdThenWarm: the first cell request simulates, the
// second identical one is a pure memo hit — same decision, zero engine
// runs.
func TestDecideCellColdThenWarm(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	req := scenario.DecideRequest{Workload: testWorkload(), Cell: testSpec("8ms")}

	cold := postDecide(t, ts.URL, req)
	if cold.Cache == nil || cold.Cache.EngineRuns != 1 {
		t.Fatalf("cold request cache %+v, want exactly 1 engine run", cold.Cache)
	}
	if cold.Measured == nil || cold.Measured.RateBps <= 0 {
		t.Fatalf("cold request measured %+v, want a positive rate", cold.Measured)
	}

	warm := postDecide(t, ts.URL, req)
	if warm.Cache == nil || warm.Cache.EngineRuns != 0 || warm.Cache.Memo != 1 {
		t.Fatalf("warm request cache %+v, want 0 engine runs / 1 memo cell", warm.Cache)
	}
	warm.Cache, cold.Cache = nil, nil
	if marshalString(t, warm) != marshalString(t, cold) {
		t.Fatalf("warm decision differs from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
}

func marshalString(t *testing.T, v any) string { return string(marshal(t, v)) }

// TestConcurrentColdCoalesce: N identical in-flight cold requests cost
// ONE simulation — the memo's single-flight entry is the coalescer —
// and every client gets the same decision.
func TestConcurrentColdCoalesce(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: t.TempDir(), MaxInflight: 16})
	req := scenario.DecideRequest{Workload: testWorkload(), Cell: testSpec("16ms")}
	body := marshal(t, req)

	const clients = 8
	before := workload.EngineRunCount()
	responses := make([]scenario.DecideResponse, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			errs <- json.Unmarshal(data, &responses[i])
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if runs := workload.EngineRunCount() - before; runs != 1 {
		t.Fatalf("%d concurrent identical cold requests ran %d simulations, want 1", clients, runs)
	}
	responses[0].Cache = nil
	ref := marshalString(t, responses[0])
	for i := 1; i < clients; i++ {
		responses[i].Cache = nil
		if marshalString(t, responses[i]) != ref {
			t.Fatalf("client %d decision differs from client 0", i)
		}
	}
}

// TestPortfolioByteIdentity: the /v1/portfolio body must be byte-
// identical to the batch CLI's -json archive for the same portfolio and
// grid — the service is a resident front-end, not a second
// implementation.
func TestPortfolioByteIdentity(t *testing.T) {
	pf, err := scenario.LoadPortfolioFile("../../examples/portfolio/portfolio.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("8ms,32ms")
	req := scenario.PortfolioRequest{
		Name:      pf.Name,
		Portfolio: scenario.File{Workloads: pf.Workloads},
		Grid:      *spec,
	}

	ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	resp, body := post(t, ts.URL+"/v1/portfolio", marshal(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("portfolio: status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Cache-Stats"); !strings.Contains(h, "engine-runs=") {
		t.Fatalf("X-Cache-Stats header %q missing engine-runs", h)
	}

	// The reference: the same computation the CLI performs, in-process
	// on a separate cache directory (bit-identity across stores is the
	// cache's own contract).
	axes, err := spec.Axes()
	if err != nil {
		t.Fatal(err)
	}
	c := workload.NewGridCache()
	c.SetDiskDir(t.TempDir())
	g, err := c.Get(axes, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := scenario.DecidePortfolio(pf, g)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pg.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("portfolio response is not byte-identical to the CLI archive for the same inputs")
	}
	if _, err := scenario.ReadPortfolioReport(bytes.NewReader(body)); err != nil {
		t.Fatalf("portfolio response does not round-trip as an archive: %v", err)
	}
}

// TestRequestValidation: malformed requests fail with 400/405 before
// any simulation.
func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: "", MaxCells: 1})
	before := workload.EngineRunCount()

	get, err := http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/decide: status %d, want 405", get.StatusCode)
	}

	badBodies := map[string]string{
		"unknown field":    `{"workload":{"name":"w"},"surprise":1}`,
		"trailing garbage": `{"workload":{"name":"w"}} trailing`,
		"bad workload":     `{"workload":{"name":"w","unit_size":"many","local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}}`,
		"multi-cell spec":  `{"workload":{"name":"w","unit_size":"2GB","local":"5TF","remote":"100TF"},"cell":{"rtts":"8ms,32ms"}}`,
	}
	for name, body := range badBodies {
		resp, data := post(t, ts.URL+"/v1/decide", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not {\"error\": …}", name, data)
		}
	}

	// Grid over the server's cell budget: refused up front.
	over := scenario.PortfolioRequest{
		Portfolio: scenario.File{Workloads: []scenario.Workload{testWorkload()}},
		Grid:      *testSpec("8ms,32ms"),
	}
	resp, data := post(t, ts.URL+"/v1/portfolio", marshal(t, over))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "limit") {
		t.Errorf("oversized grid: status %d body %s, want 400 naming the limit", resp.StatusCode, data)
	}

	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("rejected requests ran %d simulations, want 0", runs)
	}
}

// cacheCounters reads the cells-requested and engine-runs counters off
// /v1/stats.
func cacheCounters(t *testing.T, base string) (cells, runs int64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Cache.Cells, st.Cache.EngineRuns
}

// TestBadCellsRejected: a cell the experiment cannot run is a client
// error. Each body answers 400 naming the offending quantity, before any
// cell is requested from the cache or any engine runs.
func TestBadCellsRejected(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	cells, runs := cacheCounters(t, ts.URL)
	for _, tc := range badCells() {
		resp, data := post(t, ts.URL+tc.path, []byte(tc.body))
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s: decoding %s: %v", tc.body, data, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s %s:\n got %d %q\nwant 400 naming %q", tc.path, tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if c, r := cacheCounters(t, ts.URL); c != cells || r != runs {
		t.Errorf("rejected cells moved the cache counters: cells %d -> %d, engine runs %d -> %d", cells, c, runs, r)
	}
}

// badCells are bodies whose cell the experiment refuses, each with the
// endpoint it goes to and a substring of its 400 message.
func badCells() []struct{ path, body, want string } {
	w := `"workload":{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}`
	cell := func(fields string) string { return `{` + w + `,"cell":{"duration_s":1,` + fields + `}}` }
	v2 := func(fields string) string { return `{"schema":"v2",` + w + `,"cell":{"duration_s":1,` + fields + `}}` }
	return []struct{ path, body, want string }{
		{"/v1/decide", cell(`"concs":"0"`), "concurrency must be > 0"},
		{"/v1/decide", `{` + w + `,"cell":{"duration_s":10000000000}}`, "duration_s 10000000000"},
		{"/v1/decide", `{` + w + `,"cell":{"duration_s":20000000000}}`, "duration_s 20000000000"},
		{"/v1/decide", cell(`"rtts":"-5ms"`), "base RTT must be > 0"},
		{"/v1/decide", cell(`"rtts":"0s"`), "base RTT must be > 0"},
		{"/v1/decide", cell(`"crosses":"0.99"`), "cross-traffic fraction 0.99"},
		{"/v1/decide", cell(`"crosses":"NaN"`), "cross-traffic fraction NaN"},
		{"/v1/decide", cell(`"sizes":"-1GB"`), "transfer size must be > 0"},
		{"/v1/decide", cell(`"sizes":"0GB"`), "transfer size must be > 0"},
		{"/v1/decide", cell(`"buffers":"-1MB"`), "buffer must be finite and >= 0"},
		{"/v1/decide", cell(`"pflows":"1000"`), "parallel flows must be in [1,999]"},
		{"/v1/decide", cell(`"bandwidth":"0Gbps"`), "capacity must be finite and > 0"},
		{"/v1/decide", v2(`"concurrency":-2`), "concurrency must be > 0"},
		{"/v1/decide", v2(`"hops":"edge:10Gbps:2ms:1MB:NaN,wan:100Gbps:30ms"`), "fraction NaN"},
		{"/v1/decide", v2(`"hops":"edge:10Gbps:2ms,wan:100Gbps:30ms:8MB:NaN"`), "fraction NaN"},
		{"/v1/decide", v2(`"hops":"edge:10Gbps:2ms:1MB:0.97,wan:100Gbps:30ms"`), "cross-traffic fraction 0.97"},
		{"/v1/decide", v2(`"hops":"edge:10Gbps:2000000h,wan:100Gbps:2000000h"`), "base RTT must be > 0"},
		{"/v1/decide", cell(`"concs":"100000000"`), "flow limit per cell"},
		{"/v1/portfolio", `{"portfolio":{"workloads":[{` + w[len(`"workload":{`):] + `]},"grid":{"duration_s":1,"concs":"1,0"}}`,
			"concurrency must be > 0"},
		{"/v1/decide", `{` + strings.Replace(w, `"2GB"`, `"1e300GB"`, 1) + `}`, "T_local"},
		{"/v1/decide", `{` + strings.Replace(w, `17000000000000`, `1e308`, 1) + `}`, "T_local"},
	}
}

// TestHorizonIsUnprocessable: a valid cell whose transfers cannot drain
// within the simulator's 3,600-s horizon (2GB per client over 10 Mbps)
// answers 422 naming the horizon and the cell, its auto buffer spelled
// as every table spells it: a property of the input, not a server fault.
func TestHorizonIsUnprocessable(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	body := `{"workload":{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF"},` +
		`"cell":{"duration_s":1,"bandwidth":"10Mbps"}}`
	resp, data := post(t, ts.URL+"/v1/decide", []byte(body))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), "buf=auto") ||
		!strings.Contains(string(data), "exceeded the horizon") {
		t.Fatalf("10 Mbps cell: status %d body %s, want 422 naming the horizon and buf=auto", resp.StatusCode, data)
	}
}

// TestStatsAndHealthz: the observability endpoints answer and the stats
// body carries the greppable cache line.
func TestStatsAndHealthz(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: ""})

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || strings.TrimSpace(string(hzBody)) != "ok" {
		t.Fatalf("healthz: status %d body %q", hz.StatusCode, hzBody)
	}

	postDecide(t, ts.URL, scenario.DecideRequest{Workload: testWorkload()})
	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stBody, _ := io.ReadAll(st.Body)
	st.Body.Close()
	if st.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", st.StatusCode)
	}
	var stats struct {
		UptimeS   float64          `json:"uptime_s"`
		Requests  map[string]int64 `json:"requests"`
		CacheLine string           `json:"cache_line"`
	}
	if err := json.Unmarshal(stBody, &stats); err != nil {
		t.Fatalf("stats: %v\n%s", err, stBody)
	}
	if stats.UptimeS < 0 || stats.Requests["decide"] != 1 || !strings.Contains(stats.CacheLine, "engine-runs=") {
		t.Fatalf("stats body off: %s", stBody)
	}
}

// TestSchemaVersioning: the wire-level schema gate. v1 bodies answer
// byte-identically with and without the explicit "schema":"v1" spelling
// and never grow v2 keys; v2 vocabulary in a v1 body is a 400 naming
// the offending field; a v2 multi-hop body carries the placement block.
func TestSchemaVersioning(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: t.TempDir()})

	// Byte-identity across the two v1 spellings, model mode and cell
	// mode alike — the explicit tag must be invisible on the wire.
	for name, body := range map[string]string{
		"model": `{"workload":{"name":"ptycho","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}}`,
		"cell":  `{"workload":{"name":"ptycho","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"},"cell":{"duration_s":1,"size":"0.5GB","concs":"2","pflows":"2"}}`,
	} {
		resp, implicit := post(t, ts.URL+"/v1/decide", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s v1 body: status %d: %s", name, resp.StatusCode, implicit)
		}
		tagged := `{"schema":"v1",` + body[1:]
		resp, explicit := post(t, ts.URL+"/v1/decide", []byte(tagged))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s explicit v1 body: status %d: %s", name, resp.StatusCode, explicit)
		}
		// The cache block legitimately differs (the second request is
		// warm); everything else must be byte-identical.
		var a, b scenario.DecideResponse
		if err := json.Unmarshal(implicit, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(explicit, &b); err != nil {
			t.Fatal(err)
		}
		a.Cache, b.Cache = nil, nil
		if marshalString(t, a) != marshalString(t, b) {
			t.Errorf("%s: explicit \"schema\":\"v1\" changed the response:\n%s\n%s", name, implicit, explicit)
		}
		for _, key := range []string{`"placement"`, `"hops"`, `"placement_reason"`} {
			if bytes.Contains(implicit, []byte(key)) {
				t.Errorf("%s: v1 response grew v2 key %s: %s", name, key, implicit)
			}
		}
	}

	// v2 vocabulary under the v1 schema: 400 naming the field, before
	// any simulation.
	before := workload.EngineRunCount()
	w := `"workload":{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}`
	for field, body := range map[string]string{
		"hops":        `{` + w + `,"cell":{"hops":"edge:10Gbps:2ms,wan:100Gbps:30ms"}}`,
		"edge_caps":   `{` + w + `,"cell":{"edge_caps":"10Gbps"}}`,
		"wan_rtts":    `{` + w + `,"cell":{"wan_rtts":"30ms"}}`,
		"concurrency": `{` + w + `,"cell":{"concurrency":2}}`,
		"prefilter":   `{` + w + `,"cell":{"duration_s":1},"prefilter":0.25}`,
	} {
		resp, data := post(t, ts.URL+"/v1/decide", []byte(body))
		if resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(string(data), `\"`+field+`\"`) ||
			!strings.Contains(string(data), `schema`) {
			t.Errorf("%s in v1 body: status %d body %s, want 400 naming the field", field, resp.StatusCode, data)
		}
	}
	resp, data := post(t, ts.URL+"/v1/decide", []byte(`{"schema":"v3",`+w+`}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown schema") {
		t.Errorf("schema v3: status %d body %s, want 400 unknown schema", resp.StatusCode, data)
	}
	pfBody := `{"portfolio":{"workloads":[{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}]},"grid":{"duration_s":1,"hops":"edge:10Gbps:2ms,wan:100Gbps:30ms"}}`
	resp, data = post(t, ts.URL+"/v1/portfolio", []byte(pfBody))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), `\"hops\"`) {
		t.Errorf("portfolio hops in v1 body: status %d body %s", resp.StatusCode, data)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("schema-rejected requests ran %d simulations, want 0", runs)
	}

	// A v2 multi-hop cell body answers with the placement verdict and
	// per-hop attribution.
	v2 := `{"schema":"v2",` + w + `,"cell":{"duration_s":1,"hops":"edge:10Gbps:2ms,wan:100Gbps:30ms"},"prefilter":0.25}`
	resp, data = post(t, ts.URL+"/v1/decide", []byte(v2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 multi-hop body: status %d: %s", resp.StatusCode, data)
	}
	var out scenario.DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("v2 response: %v\n%s", err, data)
	}
	if out.Placement == "" || out.PlacementReason == "" || len(out.Hops) != 2 {
		t.Fatalf("v2 multi-hop response missing placement block: %s", data)
	}
	if out.Hops[0].Name != "edge" || out.Hops[1].Name != "wan" {
		t.Errorf("hop order = %+v", out.Hops)
	}
}

// TestMalformedHopAxesRejected: a v2 body whose hop and link axes
// contradict each other is a client error. It answers 400 with the grid
// validator's exact message, before any engine slot or simulation.
func TestMalformedHopAxesRejected(t *testing.T) {
	ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	w := `"workload":{"name":"w","unit_size":"2GB","complexity_flop_per_gb":17000000000000,"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s"}`
	cases := []struct{ path, body, want string }{
		{"/v1/decide",
			`{"schema":"v2",` + w + `,"cell":{"hops":"edge:10Gbps:2ms,wan:100Gbps:30ms","rtts":"8ms"}}`,
			"workload: multi-hop grids sweep WANRTTs, not the flat RTTs axis"},
		{"/v1/decide",
			`{"schema":"v2",` + w + `,"cell":{"hops":"wan:100Gbps:30ms","edge_caps":"10Gbps"}}`,
			"workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path"},
		{"/v1/decide",
			`{"schema":"v2",` + w + `,"cell":{"hops":"edge:10Gbps:2ms,ingress:40Gbps:1ms","wan_rtts":"20ms"}}`,
			"workload: WANRTTs axis requires a wan hop in the path"},
		{"/v1/portfolio",
			`{"schema":"v2","portfolio":{"workloads":[{` + w[len(`"workload":{`):] + `]},` +
				`"grid":{"duration_s":1,"hops":"edge:10Gbps:2ms,wan:100Gbps:30ms","buffers":"auto,2MB"}}`,
			"workload: multi-hop grids sweep IngressBuffers, not the flat Buffers axis"},
	}
	before := workload.EngineRunCount()
	for _, tc := range cases {
		resp, data := post(t, ts.URL+tc.path, []byte(tc.body))
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s: decoding %s: %v", tc.path, data, err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error != tc.want {
			t.Errorf("%s %s:\n got %d %q\nwant 400 %q", tc.path, tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("malformed hop-axis requests ran %d simulations, want 0", runs)
	}
}

// ---- resident state vs. sibling batch writers (re-exec harness) ----

const (
	sibDirEnv  = "REPRO_SERVICE_SIB_DIR"
	sibOpEnv   = "REPRO_SERVICE_SIB_OP"
	sibRTTsEnv = "REPRO_SERVICE_SIB_RTTS"
)

// TestServiceSiblingChild is the re-exec entry point, inert unless the
// sibling environment variables select an operation. "grid" plays the
// batch CLI appending cells; "compact" plays `ssslab -compact-cache`.
func TestServiceSiblingChild(t *testing.T) {
	dir := os.Getenv(sibDirEnv)
	if dir == "" {
		t.Skip("sibling child entry point; spawned by TestServiceSiblingWriters")
	}
	switch op := os.Getenv(sibOpEnv); op {
	case "grid":
		a, err := testSpec(os.Getenv(sibRTTsEnv)).Axes()
		if err != nil {
			t.Fatal(err)
		}
		c := workload.NewGridCache()
		c.SetDiskDir(dir)
		if _, err := c.Get(a, 0); err != nil {
			t.Fatal(err)
		}
	case "compact":
		if _, err := workload.CompactDiskCache(dir); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown %s %q", sibOpEnv, op)
	}
}

func siblingChild(dir, op string, extraEnv ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^TestServiceSiblingChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), sibDirEnv+"="+dir, sibOpEnv+"="+op)
	cmd.Env = append(cmd.Env, extraEnv...)
	return cmd
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestServiceSiblingWriters: a live server answers warm decisions while
// real sibling processes append new cells to the shared cache directory
// and then compact it. Every request during the races must succeed with
// a valid decision, and after the compaction the server must serve a
// cell it never computed — one the sibling wrote, relocated by the
// compactor — warm, without a restart.
func TestServiceSiblingWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec sibling test skipped in -short mode")
	}
	dir := t.TempDir()
	ts := newTestServer(t, Config{CacheDir: dir})
	warmReq := scenario.DecideRequest{Workload: testWorkload(), Cell: testSpec("8ms")}

	// Warm the server's own cell first (one cold simulation).
	if got := postDecide(t, ts.URL, warmReq); got.Cache.EngineRuns != 1 {
		t.Fatalf("initial cold request ran %d simulations, want 1", got.Cache.EngineRuns)
	}

	// hammerUntil serves warm requests while fn (a sibling process
	// racing the server) runs, asserting every answer is valid and warm.
	hammerUntil := func(label string, cmd *exec.Cmd) {
		t.Helper()
		done := make(chan struct {
			code int
			out  string
		}, 1)
		go func() {
			out, err := cmd.CombinedOutput()
			done <- struct {
				code int
				out  string
			}{exitCode(err), string(out)}
		}()
		hits := 0
		for {
			select {
			case r := <-done:
				if r.code != 0 {
					t.Fatalf("%s child exited %d:\n%s", label, r.code, r.out)
				}
				if hits == 0 {
					t.Fatalf("%s: no warm requests landed during the race", label)
				}
				return
			default:
				got := postDecide(t, ts.URL, warmReq)
				if got.Decision == "" || got.Cache == nil || got.Cache.EngineRuns != 0 {
					t.Fatalf("%s: warm request degraded mid-race: %+v", label, got)
				}
				hits++
			}
		}
	}

	// Race 1: the sibling cold-runs two cells the server has never seen.
	hammerUntil("append", siblingChild(dir, "grid", sibRTTsEnv+"=32ms,64ms"))
	// Race 2: the sibling compacts the shared store (new segment inode).
	hammerUntil("compact", siblingChild(dir, "compact"))

	// The server must now see the compacted store without restarting:
	// a cell only the sibling ever computed serves with zero engine
	// runs, straight from the relocated segment records.
	foreign := scenario.DecideRequest{Workload: testWorkload(), Cell: testSpec("64ms")}
	got := postDecide(t, ts.URL, foreign)
	if got.Cache.EngineRuns != 0 || got.Cache.Segment != 1 {
		t.Fatalf("post-compaction foreign cell: cache %+v, want 0 engine runs / 1 segment cell", got.Cache)
	}
	if got.Measured == nil || got.Measured.RateBps <= 0 {
		t.Fatalf("post-compaction foreign cell returned a defective record: %+v", got.Measured)
	}
}

// TestWriteJSONUnencodable: a response JSON cannot carry (a NaN float)
// answers 500 with an error body, not a 200 with an empty one.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"gain": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", rec.Code, rec.Body.String())
	}
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("body = %q (%v), want a JSON error naming NaN", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}
