// Command benchjson measures the reproduction's hot paths and writes a
// machine-readable BENCH_sweep.json, so the perf trajectory is tracked
// PR-over-PR (see PERFORMANCE.md for the contract and history).
//
//	benchjson [-o BENCH_sweep.json] [-quick] [-compare BENCH_sweep.json] [-tol 1e-9]
//
// Every scenario is measured with testing.Benchmark, so ns/op, B/op and
// allocs/op mean exactly what `go test -bench` reports. Paper-relevant
// outputs (worst-case transfer seconds, SSS) ride along as metrics, like
// the root bench harness attaches via b.ReportMetric.
//
// With -compare, the run exits non-zero if any deterministic scenario
// metric (sss, worst_s, engine_runs — simulation outputs and cache
// behavior, machine-independent) drifts from the tracked report by more
// than the relative tolerance -tol. CI uses this (scripts/benchcmp.sh)
// to catch silent changes to the sweep and engine dynamics — and, via the
// engine_runs = 0 of grid_subgrid_warm, grid_segment_warm,
// grid_multihop_warm, grid_open_100k, and service_warm_decision, any
// regression of the cell store's sub-grid reuse, segment warm-open
// (small, multi-hop, and 100,000-cell scale), or resident-service
// warm-request guarantees, and via grid_cold_append's engine_runs = 64
// (one engine run per cold cell) any cold run that re-runs or skips
// cells; timings are never compared, so the gate is noise-free.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Entry is one measured scenario.
type Entry struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_sweep.json schema.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Quick      bool    `json:"quick"`
	Results    []Entry `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// saturatingBurst is the shared overload workload of the root bench
// harness: 5 s of 6 simultaneous 0.5 GB clients per second (96% offered
// load) on the paper's 25 Gbps bottleneck.
func saturatingBurst() []tcpsim.FlowSpec {
	var specs []tcpsim.FlowSpec
	id := 0
	for sec := 0; sec < 5; sec++ {
		for c := 0; c < 6; c++ {
			specs = append(specs, tcpsim.FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
			id++
		}
	}
	return specs
}

// decideCell is one cell of the shape the decided benchmark seeds:
// three one-second arrival waves of four clients, each moving 1 GB over
// eight flows (96 flows), IDs as the workload package assigns them.
func decideCell() []tcpsim.FlowSpec {
	var specs []tcpsim.FlowSpec
	for client := 0; client < 12; client++ {
		for f := 0; f < 8; f++ {
			specs = append(specs, tcpsim.FlowSpec{ID: client*1000 + f, Arrival: float64(client / 4), Size: units.GB / 8})
		}
	}
	return specs
}

func measure(name string, metrics map[string]float64, fn func(b *testing.B)) Entry {
	r := testing.Benchmark(fn)
	return Entry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     metrics,
	}
}

// sweepMetrics extracts the paper-facing outputs of a sweep.
func sweepMetrics(sweep *workload.SweepResult) map[string]float64 {
	worst := time.Duration(0)
	sss := 0.0
	for _, row := range sweep.Rows {
		if row.Worst > worst {
			worst = row.Worst
		}
		if row.SSS > sss {
			sss = row.SSS
		}
	}
	return map[string]float64{"worst_s": worst.Seconds(), "sss": sss}
}

// gridMetrics extracts the same outputs from a scenario grid.
func gridMetrics(g *workload.GridResult) map[string]float64 {
	worst := time.Duration(0)
	sss := 0.0
	for _, row := range g.Rows {
		if row.Worst > worst {
			worst = row.Worst
		}
		if row.SSS > sss {
			sss = row.SSS
		}
	}
	return map[string]float64{"worst_s": worst.Seconds(), "sss": sss}
}

// subgridAxes returns the superset grid persisted once and the strictly
// contained sub-grid the grid_subgrid_warm scenario assembles from its
// cell records (2 conc × 2 P × 3 RTTs × 2 buffers = 24 cells; the
// sub-grid keeps one RTT, so 8 of them).
func subgridAxes() (super, sub workload.Axes) {
	super = workload.Axes{
		Duration:      2 * time.Second,
		Concurrencies: []int{2, 6},
		ParallelFlows: []int{2, 8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		RTTs:          []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond},
		Buffers:       []units.ByteSize{0, 2 * units.MB},
		Strategy:      workload.SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
	sub = super
	sub.RTTs = super.RTTs[2:]
	return super, sub
}

// coldAppendAxes is the grid_cold_append scenario's grid: 64 cheap
// QuickSweep-sized cells (2 conc × 2 P × 8 RTTs × 2 buffers, 1 s each),
// so the store's share of a cold cell — encode, batch append, sidecar
// flush — is visible next to the engine's.
func coldAppendAxes() workload.Axes {
	rtts := make([]time.Duration, 8)
	for i := range rtts {
		rtts[i] = time.Duration(2*i+2) * time.Millisecond
	}
	return workload.Axes{
		Duration:      time.Second,
		Concurrencies: []int{1, 2},
		ParallelFlows: []int{1, 2},
		TransferSizes: []units.ByteSize{0.1 * units.GB},
		RTTs:          rtts,
		Buffers:       []units.ByteSize{0, units.MB},
		Strategy:      workload.SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
}

// coldAppend runs a cold into a fresh directory under parent on one
// worker — execute, encode, batch append, flush — and returns the run
// and its stats. The directory's resident store is released and its
// files removed before returning.
func coldAppend(parent string, a workload.Axes) (*workload.GridResult, workload.CacheStats, error) {
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, workload.CacheStats{}, err
	}
	defer os.RemoveAll(dir)
	defer workload.CloseDiskCache(dir)
	c := workload.NewGridCache()
	c.SetDiskDir(dir)
	return c.GetStats(a, 1)
}

// multiHopAxes is the grid_multihop_warm scenario's grid: an
// edge→WAN→ingress hop chain swept over edge capacity × WAN RTT ×
// ingress buffer
// (2×2×2 = 8 cells). Small on purpose — the scenario measures the
// multi-hop warm-open path (hop-axis cells, keyed by their composed
// coordinates, reassembled from v4 cell records and the compacted
// segment store), not the simulator.
func multiHopAxes() workload.Axes {
	return workload.Axes{
		Duration:      time.Second,
		Concurrencies: []int{2},
		ParallelFlows: []int{4},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Net:           tcpsim.DefaultConfig(),
		Path: tcpsim.Path{
			{Role: tcpsim.HopEdge, Capacity: 10 * units.Gbps, RTT: 2 * time.Millisecond},
			{Role: tcpsim.HopWAN, Capacity: 100 * units.Gbps, RTT: 30 * time.Millisecond, CrossFraction: 0.3},
			{Role: tcpsim.HopIngress, Capacity: 40 * units.Gbps, RTT: time.Millisecond},
		},
		EdgeCaps:       []units.BitRate{10 * units.Gbps, 40 * units.Gbps},
		WANRTTs:        []time.Duration{20 * time.Millisecond, 60 * time.Millisecond},
		IngressBuffers: []units.ByteSize{0, 4 * units.MB},
	}
}

// bigGridAxes is the grid_open_100k scenario's grid: exactly 100,000
// cells (2 conc × 2 P × 2 sizes × 125 RTTs × 5 buffers × 2 CCs × 10
// cross fractions) of the cheapest representable cells, so the scenario
// measures the warm-open path — sidecar load, streaming segment reads,
// parallel decode — rather than the simulator.
func bigGridAxes() workload.Axes {
	rtts := make([]time.Duration, 125)
	for i := range rtts {
		rtts[i] = time.Duration(i+1) * time.Millisecond
	}
	crosses := make([]float64, 10)
	for i := range crosses {
		crosses[i] = 0.05 * float64(i)
	}
	return workload.Axes{
		Duration:       time.Second,
		Concurrencies:  []int{1, 2},
		ParallelFlows:  []int{1, 2},
		TransferSizes:  []units.ByteSize{0.1 * units.GB, 0.2 * units.GB},
		RTTs:           rtts,
		Buffers:        []units.ByteSize{0, 512 * units.KB, units.MB, 2 * units.MB, 4 * units.MB},
		CCs:            []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic},
		CrossFractions: crosses,
		Strategy:       workload.SpawnSimultaneous,
		Net:            tcpsim.DefaultConfig(),
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "BENCH_sweep.json", "output path")
	quick := fs.Bool("quick", false, "skip paper-scale scenarios (CI smoke run)")
	comparePath := fs.String("compare", "", "fail on deterministic-metric drift from this tracked report")
	tol := fs.Float64("tol", 1e-9, "relative tolerance for -compare")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report := Report{
		Schema:     "bench_sweep/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	cfg := tcpsim.DefaultConfig()
	burst := saturatingBurst()
	quickCfg := experiments.QuickSweep()

	// The engine perf contract: a warmed engine must stay allocation-free
	// for whole runs (AllocsPerOp 0 here; enforced hard by the tcpsim
	// tests).
	eng := tcpsim.NewEngine()
	if _, err := eng.Run(cfg, burst); err != nil {
		return err
	}
	report.Results = append(report.Results, measure("tcpsim_engine_steady", nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(cfg, burst); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The engine alone on the cold-cell shape: long congestion-avoidance
	// runs of ~60 concurrent flows, the steps that dominate a cold grid.
	// worst_s (the slowest flow's completion time) is gated by -compare;
	// allocs_per_op is recorded and, on a reused engine, 0.
	cellCfg := tcpsim.DefaultConfig()
	cellCfg.CC = tcpsim.Cubic
	cellCfg.Cross.Fraction = 0.1
	cell := decideCell()
	cellRes, err := eng.Run(cellCfg, cell)
	if err != nil {
		return err
	}
	cellWorst := 0.0
	for _, f := range cellRes.Flows {
		cellWorst = max(cellWorst, f.Duration())
	}
	report.Results = append(report.Results, measure("tcpsim_engine_cell", map[string]float64{"worst_s": cellWorst}, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(cellCfg, cell); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Cold path (fresh engine per call) — comparable to the seed's
	// BenchmarkTCPSimSaturated (53 µs, 529 allocs at the seed).
	report.Results = append(report.Results, measure("tcpsim_run_cold", nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tcpsim.Run(cfg, burst); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The Table 2 sweep on the one executor: serial (one worker, the
	// speedup reference) and on the full pool.
	quickAxes := workload.AxesFromSweep(quickCfg)
	serial, err := workload.RunGridParallel(quickAxes, 1)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, measure("sweep_quick_serial", gridMetrics(serial), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.RunGridParallel(quickAxes, 1); err != nil {
				b.Fatal(err)
			}
		}
	}))

	report.Results = append(report.Results, measure("sweep_quick_parallel", gridMetrics(serial), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.RunGridParallel(quickAxes, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// RunAll regenerates every artifact. Cold purges the grid cache each
	// iteration; cached is the steady state the figure pipeline sees.
	report.Results = append(report.Results, measure("runall_quick_cold", nil, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			workload.PurgeGridCache()
			if _, err := experiments.RunAll(quickCfg); err != nil {
				b.Fatal(err)
			}
		}
	}))
	report.Results = append(report.Results, measure("runall_quick_cached", nil, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunAll(quickCfg); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The cold path end to end: 64 cells executed and persisted into a
	// fresh directory per iteration, on one worker. engine_runs (64) is
	// gated by -compare, so a cold run that stops persisting — or starts
	// re-running cells — fails the bench gate; allocs_per_op is recorded.
	coldParent, err := os.MkdirTemp("", "benchjson-cold")
	if err != nil {
		return err
	}
	defer os.RemoveAll(coldParent)
	coldAxes := coldAppendAxes()
	coldRes, coldSt, err := coldAppend(coldParent, coldAxes)
	if err != nil {
		return err
	}
	coldMetrics := gridMetrics(coldRes)
	coldMetrics["engine_runs"] = float64(coldSt.EngineRuns)
	report.Results = append(report.Results, measure("grid_cold_append", coldMetrics, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := coldAppend(coldParent, coldAxes); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The incremental planner's headline path: a sub-grid assembled
	// purely from a superset grid's cell records. engine_runs is gated
	// at 0 by -compare — any regression in cell-granular reuse fails the
	// bench gate, not just the unit tests.
	cellDir, err := os.MkdirTemp("", "benchjson-cells")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cellDir)
	super, sub := subgridAxes()
	seeder := workload.NewGridCache()
	seeder.SetDiskDir(cellDir)
	if _, err := seeder.Get(super, 0); err != nil {
		return err
	}
	before := workload.EngineRunCount()
	fresh := workload.NewGridCache()
	fresh.SetDiskDir(cellDir)
	subRes, err := fresh.Get(sub, 0)
	if err != nil {
		return err
	}
	subMetrics := gridMetrics(subRes)
	subMetrics["engine_runs"] = float64(workload.EngineRunCount() - before)
	report.Results = append(report.Results, measure("grid_subgrid_warm", subMetrics, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh cache per iteration: the memo must not hide the
			// disk-assembly cost being measured.
			c := workload.NewGridCache()
			c.SetDiskDir(cellDir)
			if _, err := c.Get(sub, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The segment store's headline path: the whole superset grid
	// warm-opened from a compacted segment file the way a fresh process
	// would — index sidecar load plus parallel record fetch — with
	// engine_runs gated at 0 by -compare, so any regression of the
	// segment round-trip fails the bench gate.
	if _, err := workload.CompactDiskCache(cellDir); err != nil {
		return err
	}
	workload.ResetSegmentStores()
	before = workload.EngineRunCount()
	segCache := workload.NewGridCache()
	segCache.SetDiskDir(cellDir)
	segRes, err := segCache.Get(super, 0)
	if err != nil {
		return err
	}
	segMetrics := gridMetrics(segRes)
	segMetrics["engine_runs"] = float64(workload.EngineRunCount() - before)
	report.Results = append(report.Results, measure("grid_segment_warm", segMetrics, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Reset drops the in-memory index so every iteration pays
			// the true warm-open cost: open segment, load sidecar,
			// assemble the grid from record reads.
			workload.ResetSegmentStores()
			c := workload.NewGridCache()
			c.SetDiskDir(cellDir)
			if _, err := c.Get(super, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The multi-hop warm-open path: an edge→WAN grid cold-seeded once,
	// compacted, and then reassembled from the segment store the way a
	// fresh process would — every hop point (edge cap, WAN RTT, ingress
	// buffer) found again under its composed coordinates. engine_runs is gated
	// at 0 by -compare: a multi-hop re-run that simulates means the hop
	// axes broke cache identity.
	hopDir, err := os.MkdirTemp("", "benchjson-multihop")
	if err != nil {
		return err
	}
	defer os.RemoveAll(hopDir)
	hop := multiHopAxes()
	hopSeeder := workload.NewGridCache()
	hopSeeder.SetDiskDir(hopDir)
	if _, err := hopSeeder.Get(hop, 0); err != nil {
		return err
	}
	if _, err := workload.CompactDiskCache(hopDir); err != nil {
		return err
	}
	workload.ResetSegmentStores()
	before = workload.EngineRunCount()
	hopCache := workload.NewGridCache()
	hopCache.SetDiskDir(hopDir)
	hopRes, err := hopCache.Get(hop, 0)
	if err != nil {
		return err
	}
	hopMetrics := gridMetrics(hopRes)
	hopMetrics["engine_runs"] = float64(workload.EngineRunCount() - before)
	report.Results = append(report.Results, measure("grid_multihop_warm", hopMetrics, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Reset drops the in-memory index so every iteration pays the
			// true warm-open cost for the hop-axis grid.
			workload.ResetSegmentStores()
			c := workload.NewGridCache()
			c.SetDiskDir(hopDir)
			if _, err := c.Get(hop, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The tentpole warm-open path at paper scale: a 100,000-cell grid,
	// cold-seeded once and compacted, then warm-opened the way a fresh
	// process would — binary sidecar load, streaming sequential segment
	// reads, the fetch pool decoding behind the reader. engine_runs is
	// gated at 0 by -compare; the absolute wall-clock bound lives in
	// scripts/bigcheck.sh, where the open runs through the real CLI.
	bigDir, err := os.MkdirTemp("", "benchjson-biggrid")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bigDir)
	big := bigGridAxes()
	bigSeeder := workload.NewGridCache()
	bigSeeder.SetDiskDir(bigDir)
	if _, err := bigSeeder.Get(big, 0); err != nil {
		return err
	}
	if _, err := workload.CompactDiskCache(bigDir); err != nil {
		return err
	}
	workload.ResetSegmentStores()
	before = workload.EngineRunCount()
	bigCache := workload.NewGridCache()
	bigCache.SetDiskDir(bigDir)
	bigRes, err := bigCache.Get(big, 0)
	if err != nil {
		return err
	}
	bigMetrics := gridMetrics(bigRes)
	bigMetrics["engine_runs"] = float64(workload.EngineRunCount() - before)
	report.Results = append(report.Results, measure("grid_open_100k", bigMetrics, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Reset drops the resident index: every iteration is a fresh
			// process's fully warm open.
			workload.ResetSegmentStores()
			c := workload.NewGridCache()
			c.SetDiskDir(bigDir)
			if _, err := c.Get(big, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The decided service's headline path: a warm single-cell decision
	// through the full in-process handler stack (decode + validate +
	// index refresh + memo hit + decide + encode; no network, so the
	// number is the server's own cost). engine_runs is gated at 0 by
	// -compare: a warm request that simulates is a resident-state
	// regression, caught here as well as by scripts/loadcheck.sh.
	svcDir, err := os.MkdirTemp("", "benchjson-svc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(svcDir)
	svc := service.New(service.Config{CacheDir: svcDir})
	svcBody, err := json.Marshal(scenario.DecideRequest{
		Workload: scenario.Workload{
			Name: "bench", UnitSize: "2GB", ComplexityFLOPPerGB: 17e12,
			Local: "5TF", Remote: "100TF",
		},
		Cell: &scenario.GridSpec{
			DurationS: 1,
			Size:      "0.5GB",
			AxesSpec:  scenario.AxesSpec{Concs: "2", Flows: "2", RTTs: "16ms"},
		},
	})
	if err != nil {
		return err
	}
	svcDo := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/v1/decide", bytes.NewReader(svcBody))
		w := httptest.NewRecorder()
		svc.ServeHTTP(w, r)
		return w
	}
	if w := svcDo(); w.Code != 200 { // the one cold request: warms the cell
		return fmt.Errorf("service warm-up request failed: %d %s", w.Code, w.Body)
	}
	before = workload.EngineRunCount()
	warmResp := svcDo()
	if warmResp.Code != 200 {
		return fmt.Errorf("service warm request failed: %d %s", warmResp.Code, warmResp.Body)
	}
	var warmDec scenario.DecideResponse
	if err := json.Unmarshal(warmResp.Body.Bytes(), &warmDec); err != nil {
		return err
	}
	svcMetrics := map[string]float64{
		"worst_s":     warmDec.Measured.WorstS,
		"sss":         warmDec.Measured.SSS,
		"engine_runs": float64(workload.EngineRunCount() - before),
	}
	report.Results = append(report.Results, measure("service_warm_decision", svcMetrics, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if w := svcDo(); w.Code != 200 {
				b.Fatalf("status %d", w.Code)
			}
		}
	}))

	if !*quick {
		paperCfg := experiments.PaperSweep()
		fig2a, err := experiments.Fig2a(paperCfg)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, measure("fig2a_paper_cached", sweepMetrics(fig2a.Sweep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig2a(paperCfg); err != nil {
					b.Fatal(err)
				}
			}
		}))
		report.Results = append(report.Results, measure("sweep_paper_parallel", sweepMetrics(fig2a.Sweep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := paperCfg
				cfg.Strategy = workload.SpawnSimultaneous
				if _, err := workload.RunGridParallel(workload.AxesFromSweep(cfg), 0); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Read the baseline BEFORE writing the report: -o and -compare may
	// name the same file (the "regenerate while proving nothing drifted"
	// flow), and writing first would silently compare the run to itself.
	var baseline *Report
	if *comparePath != "" {
		baseData, err := os.ReadFile(*comparePath)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		baseline = new(Report)
		if err := json.Unmarshal(baseData, baseline); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", *comparePath, err)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d scenarios)\n", *outPath, len(report.Results))
	for _, e := range report.Results {
		fmt.Fprintf(out, "  %-22s %12.0f ns/op %8d B/op %6d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	if baseline != nil {
		n, err := compareReports(report, *baseline, *tol)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "compare vs %s: OK (%d deterministic metrics within %g)\n", *comparePath, n, *tol)
	}
	return nil
}

// deterministicMetrics are the simulation outputs compared by -compare:
// bit-reproducible across machines and worker counts, unlike timings.
// engine_runs rides along for grid_subgrid_warm, grid_segment_warm,
// grid_multihop_warm, grid_open_100k, and service_warm_decision, where
// the tracked value 0 turns the sub-grid reuse, segment warm-open
// (flat and multi-hop), and resident-service warm-request guarantees
// into bench-gate invariants, and for grid_cold_append, where it is the
// grid's cell count.
var deterministicMetrics = []string{"sss", "worst_s", "engine_runs"}

// compareReports checks every deterministic metric present in both
// reports (scenarios matched by name) against the relative tolerance.
// It returns the number of metrics compared; zero overlap is an error —
// a gate that compares nothing must not pass.
func compareReports(current, baseline Report, tol float64) (int, error) {
	if baseline.Schema != current.Schema {
		return 0, fmt.Errorf("baseline schema %q != %q", baseline.Schema, current.Schema)
	}
	baseByName := make(map[string]Entry, len(baseline.Results))
	for _, e := range baseline.Results {
		baseByName[e.Name] = e
	}
	compared := 0
	var drift []string
	for _, cur := range current.Results {
		base, ok := baseByName[cur.Name]
		if !ok {
			continue
		}
		for _, key := range deterministicMetrics {
			bv, bok := base.Metrics[key]
			cv, cok := cur.Metrics[key]
			if !bok || !cok {
				continue
			}
			compared++
			denom := math.Abs(bv)
			if denom == 0 {
				denom = 1
			}
			if math.Abs(cv-bv)/denom > tol {
				drift = append(drift, fmt.Sprintf("%s %s: baseline %v, got %v", cur.Name, key, bv, cv))
			}
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no deterministic metrics overlap with the baseline")
	}
	if len(drift) > 0 {
		return compared, fmt.Errorf("bench regression: %d metric(s) drifted beyond %g:\n  %s",
			len(drift), tol, strings.Join(drift, "\n  "))
	}
	return compared, nil
}
