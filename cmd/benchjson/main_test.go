package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quickRun is the one -quick suite run both TestBenchJSONQuick and
// TestCompareAgainstTrackedBaseline check: it writes the report and
// compares it against the repo's tracked BENCH_sweep.json, and the run
// writes the report before comparing, so a drift still leaves the report
// for TestBenchJSONQuick to inspect.
var quickRun struct {
	once   sync.Once
	report []byte // the written report file
	out    string // run's stdout
	err    error  // run's error (a compare drift included)
}

func runQuickSuite(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("benchjson smoke run is itself a benchmark")
	}
	quickRun.once.Do(func() {
		out := filepath.Join(t.TempDir(), "BENCH_sweep.json")
		var buf bytes.Buffer
		quickRun.err = run([]string{"-quick", "-o", out, "-compare", filepath.Join("..", "..", "BENCH_sweep.json")}, &buf)
		quickRun.out = buf.String()
		quickRun.report, _ = os.ReadFile(out)
	})
}

func TestBenchJSONQuick(t *testing.T) {
	runQuickSuite(t)
	if quickRun.report == nil {
		t.Fatalf("no report written: %v", quickRun.err)
	}
	var rep Report
	if err := json.Unmarshal(quickRun.report, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rep.Schema != "bench_sweep/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	want := map[string]bool{
		"tcpsim_engine_steady":  false,
		"tcpsim_run_cold":       false,
		"sweep_quick_serial":    false,
		"sweep_quick_parallel":  false,
		"runall_quick_cold":     false,
		"runall_quick_cached":   false,
		"grid_subgrid_warm":     false,
		"grid_segment_warm":     false,
		"grid_multihop_warm":    false,
		"grid_open_100k":        false,
		"service_warm_decision": false,
	}
	for _, e := range rep.Results {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Errorf("%s: empty measurement %+v", e.Name, e)
		}
		switch e.Name {
		case "tcpsim_engine_steady":
			// The perf contract: warmed engine runs allocate nothing.
			if e.AllocsPerOp != 0 {
				t.Errorf("engine steady state allocates %d/op, want 0", e.AllocsPerOp)
			}
		case "sweep_quick_serial", "sweep_quick_parallel":
			if e.Metrics["worst_s"] <= 0 || e.Metrics["sss"] < 1 {
				t.Errorf("%s: implausible sweep metrics %v", e.Name, e.Metrics)
			}
		case "grid_subgrid_warm", "grid_segment_warm", "grid_multihop_warm", "grid_open_100k", "service_warm_decision":
			// The cache invariants the -compare gate tracks at 0: warm
			// assemblies must never simulate.
			if runs, ok := e.Metrics["engine_runs"]; !ok || runs != 0 {
				t.Errorf("%s: engine_runs = %v, want 0", e.Name, e.Metrics["engine_runs"])
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("scenario %s missing from report", name)
		}
	}
}

// report builds a minimal Report for compare tests.
func report(entries ...Entry) Report {
	return Report{Schema: "bench_sweep/v1", Results: entries}
}

func TestCompareReports(t *testing.T) {
	baseline := report(
		Entry{Name: "sweep_quick_serial", Metrics: map[string]float64{"sss": 27.11483609375, "worst_s": 4.338373775}},
		Entry{Name: "sweep_paper_parallel", Metrics: map[string]float64{"sss": 30, "worst_s": 5}},
		Entry{Name: "tcpsim_engine_steady"},
	)

	// Identical metrics pass; paper-only scenarios are skipped on quick runs.
	current := report(
		Entry{Name: "sweep_quick_serial", Metrics: map[string]float64{"sss": 27.11483609375, "worst_s": 4.338373775}},
		Entry{Name: "tcpsim_engine_steady"},
	)
	n, err := compareReports(current, baseline, 1e-9)
	if err != nil {
		t.Fatalf("identical metrics rejected: %v", err)
	}
	if n != 2 {
		t.Errorf("compared %d metrics, want 2", n)
	}

	// Drift beyond tolerance fails and names the metric.
	drifted := report(
		Entry{Name: "sweep_quick_serial", Metrics: map[string]float64{"sss": 28.5, "worst_s": 4.338373775}},
	)
	if _, err := compareReports(drifted, baseline, 1e-9); err == nil {
		t.Error("drifted sss accepted")
	} else if !strings.Contains(err.Error(), "sweep_quick_serial sss") {
		t.Errorf("drift error does not name the metric: %v", err)
	}

	// The same drift passes under a loose tolerance.
	if _, err := compareReports(drifted, baseline, 0.1); err != nil {
		t.Errorf("drift within tolerance rejected: %v", err)
	}

	// A gate that compares nothing must not pass.
	empty := report(Entry{Name: "tcpsim_engine_steady"})
	if _, err := compareReports(empty, baseline, 1e-9); err == nil {
		t.Error("zero-overlap comparison accepted")
	}

	// Schema mismatch is refused outright.
	wrong := report(Entry{Name: "sweep_quick_serial", Metrics: map[string]float64{"sss": 27.11483609375}})
	wrong.Schema = "bench_sweep/v2"
	if _, err := compareReports(wrong, baseline, 1e-9); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestCompareAgainstTrackedBaseline pins the compare path end-to-end: a
// quick run's deterministic metrics must match the repo's tracked
// BENCH_sweep.json exactly (the simulation is seeded and bit-stable).
func TestCompareAgainstTrackedBaseline(t *testing.T) {
	runQuickSuite(t)
	if quickRun.err != nil {
		t.Fatalf("compare against tracked baseline failed: %v", quickRun.err)
	}
	if !strings.Contains(quickRun.out, "compare vs") {
		t.Errorf("missing compare summary:\n%s", quickRun.out)
	}
}
