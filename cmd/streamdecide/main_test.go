package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// TestMain points CACHE_DIR at a throwaway directory so a test that
// omits -cache-dir can never read or write the developer's real sweep
// cache.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "streamdecide-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("CACHE_DIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestDefaultDecision(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"DECISION:   remote", "gain:", "theta* = 6.460", "break-even"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestTierDeadline(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-tier", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Tier 2") {
		t.Errorf("missing tier: %s", out.String())
	}
	if err := run([]string{"-tier", "9"}, &out); err == nil {
		t.Error("bad tier accepted")
	}
}

func TestGenerationRateInfeasible(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-gen", "4GB/s"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DECISION:   local") {
		t.Errorf("4 GB/s on 2 GB/s effective should force local:\n%s", out.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := [][]string{
		{"-size", "banana"},
		{"-local", "x"},
		{"-remote", "?"},
		{"-bw", "12 parsecs"},
		{"-rate", "oops"},
		{"-gen", "bad"},
		{"-theta", "0.5"}, // invalid params -> Decide error
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestConfigPortfolio(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "portfolio.json")
	doc := `{"workloads":[{"name":"XPCS","unit_size":"2GB","complexity_flop_per_gb":17e12,
		"local":"5TF","remote":"100TF","bandwidth":"25Gbps","transfer_rate":"2GB/s","tier":2}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-config", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "XPCS") || !strings.Contains(out.String(), "remote") {
		t.Errorf("portfolio output:\n%s", out.String())
	}
	if err := run([]string{"-config", filepath.Join(dir, "missing.json")}, &out); err == nil {
		t.Error("missing config accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}, &out); err == nil {
		t.Error("bad config accepted")
	}
}

func TestSensitivityCharts(t *testing.T) {
	for _, axis := range []string{"theta", "alpha", "r"} {
		var out strings.Builder
		if err := run([]string{"-sensitivity", axis}, &out); err != nil {
			t.Fatalf("axis %s: %v", axis, err)
		}
		if !strings.Contains(out.String(), "T_pct sensitivity to "+axis) {
			t.Errorf("axis %s: chart missing", axis)
		}
		if !strings.Contains(out.String(), "T_local") {
			t.Errorf("axis %s: reference line missing", axis)
		}
	}
	var out strings.Builder
	if err := run([]string{"-sensitivity", "bogus"}, &out); err == nil {
		t.Error("bogus axis accepted")
	}
}

func TestNoTierLine(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-theta", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	// theta = 8 pushes T_pct above T_local: local wins, and the
	// theta break-even is reported as the boundary.
	if !strings.Contains(out.String(), "DECISION:   local") {
		t.Errorf("theta=8 should favor local:\n%s", out.String())
	}
}

func TestGridDecisions(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-grid", "-gseconds", "1", "-rtts", "8ms,64ms",
		"-crosses", "0,0.3", "-sizes", "0.5GB,2GB", "-cache-dir", "off"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"grid: 8 cells",
		"R_transfer measured per cell",
		"Decision",
		"break-even",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
	// Every cell must reach a decision.
	if got := strings.Count(s, "remote") + strings.Count(s, "local") + strings.Count(s, "infeasible"); got < 8 {
		t.Errorf("expected at least 8 decisions, got %d:\n%s", got, s)
	}
}

func TestGridWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-grid", "-gseconds", "1", "-rtts", "8ms,32ms",
		"-buffers", "auto,1MB", "-pflows", "2,8", "-cache-dir", dir}

	// Start cold, as a real CLI invocation would.
	workload.PurgeGridCache()

	var cold strings.Builder
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	workload.PurgeGridCache()

	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("warm grid invocation ran %d experiments, want 0", runs)
	}
	if warm.String() != cold.String() {
		t.Errorf("warm output differs:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

// TestCacheStats: -cache-stats attributes every requested cell, cold
// and warm — and a sub-grid of an earlier superset run reports zero
// engine runs.
func TestCacheStats(t *testing.T) {
	dir := t.TempDir()
	workload.PurgeGridCache()

	superArgs := []string{"-grid", "-gseconds", "1", "-rtts", "8ms,32ms",
		"-buffers", "auto,1MB", "-pflows", "2,8", "-cache-dir", dir, "-cache-stats"}
	var cold strings.Builder
	if err := run(superArgs, &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "cache-stats: cells=8 memo=0 disk=0 segment=0 engine-runs=8") {
		t.Errorf("cold stats line missing:\n%s", cold.String())
	}

	workload.PurgeGridCache()
	subArgs := []string{"-grid", "-gseconds", "1", "-rtts", "8ms",
		"-buffers", "1MB", "-pflows", "2,8", "-cache-dir", dir, "-cache-stats"}
	var warm strings.Builder
	if err := run(subArgs, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "cache-stats: cells=2 memo=0 disk=0 segment=2 engine-runs=0") {
		t.Errorf("warm sub-grid stats line missing:\n%s", warm.String())
	}
}

// TestCacheStatsRequiresGrid: -cache-stats outside grid mode errors
// with a usage message instead of silently dropping the flag.
func TestCacheStatsRequiresGrid(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-stats"},
		{"-cache-stats", "-config", examplePortfolio},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "requires -grid") || !strings.Contains(err.Error(), "usage:") {
			t.Errorf("run(%v) error = %v, want -grid usage message", args, err)
		}
	}
}

// TestCompactCache: -compact-cache folds a seeded cache into a segment
// and a warm grid run then reports only segment hits.
func TestCompactCache(t *testing.T) {
	dir := t.TempDir()
	workload.PurgeGridCache()

	superArgs := []string{"-grid", "-gseconds", "1", "-rtts", "8ms,32ms",
		"-buffers", "auto,1MB", "-pflows", "2,8", "-cache-dir", dir}
	var cold strings.Builder
	if err := run(superArgs, &cold); err != nil {
		t.Fatal(err)
	}

	var summary strings.Builder
	if err := run([]string{"-compact-cache", "-cache-dir", dir}, &summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "compacted") || !strings.Contains(summary.String(), "8 records") {
		t.Errorf("compaction summary: %q", summary.String())
	}

	workload.PurgeGridCache()
	workload.ResetSegmentStores()
	var warm strings.Builder
	if err := run(append(superArgs, "-cache-stats"), &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "cache-stats: cells=8 memo=0 disk=0 segment=8 engine-runs=0") {
		t.Errorf("post-compaction warm stats missing:\n%s", warm.String())
	}
}

// TestCompactCacheFlagConflicts: -compact-cache is standalone.
func TestCompactCacheFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-compact-cache", "-grid"},
		{"-compact-cache", "-portfolio", "x.json", "-grid"},
		{"-compact-cache", "-config", examplePortfolio},
		{"-compact-cache", "-cache-stats"},
		{"-compact-cache", "-json", "out.json"},
		{"-compact-cache", "-rtts", "8ms,16ms"},
		{"-compact-cache", "-hops", "edge:10Gbps:2ms,wan:100Gbps:30ms"},
		{"-compact-cache", "-edge-caps", "10Gbps,60Gbps"},
		{"-compact-cache", "-wan-rtts", "20ms,60ms"},
		{"-compact-cache", "-ingress-buffers", "auto,4MB"},
		{"-compact-cache", "-prefilter", "0.25"},
		{"-compact-cache", "-size", "1GB"},
		{"-compact-cache", "-tier", "2"},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "standalone maintenance mode") ||
			!strings.Contains(err.Error(), "usage:") || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("run(%v) error = %v, want standalone-mode usage error naming %s", args, err, args[1])
		}
	}
}

// examplePortfolio is the runnable portfolio shipped with the repo; the
// CLI tests exercise the same file the README quickstart uses.
const examplePortfolio = "../../examples/portfolio/portfolio.json"

func TestPortfolioGridDecisions(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-portfolio", examplePortfolio, "-grid", "-gseconds", "1",
		"-rtts", "8ms,64ms", "-crosses", "0,0.3", "-cache-dir", "off"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"portfolio: portfolio (4 scenarios)",
		"XPCS", "TomoBank", "CryoML", "HLT",
		"Stream",
		"per-scenario break-even frontiers:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

// TestPortfolioGridWarmCache is the acceptance contract: a second
// portfolio run against a warm disk cache performs zero engine runs and
// produces byte-identical output.
func TestPortfolioGridWarmCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-portfolio", examplePortfolio, "-grid", "-gseconds", "1",
		"-rtts", "8ms,32ms", "-crosses", "0,0.3", "-cache-dir", dir}

	workload.PurgeGridCache()
	var cold strings.Builder
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	workload.PurgeGridCache()

	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("warm portfolio invocation ran %d experiments, want 0", runs)
	}
	if warm.String() != cold.String() {
		t.Errorf("warm output differs:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

func TestPortfolioGridArchives(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "portfolio.csv")
	jsonPath := filepath.Join(dir, "portfolio.json")
	var out strings.Builder
	err := run([]string{"-portfolio", examplePortfolio, "-grid", "-gseconds", "1",
		"-csv", csvPath, "-json", jsonPath, "-cache-dir", "off"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "cell,size,rtt,") {
		t.Errorf("CSV header: %q", strings.SplitN(string(csvData), "\n", 2)[0])
	}
	jf, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	rep, err := scenario.ReadPortfolioReport(jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 4 || len(rep.Cells) != 1 {
		t.Errorf("archived report shape: %d scenarios, %d cells", len(rep.Scenarios), len(rep.Cells))
	}
}

func TestPortfolioFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-portfolio", examplePortfolio},                             // requires -grid
		{"-portfolio", examplePortfolio, "-grid", "-config", "x"},    // exclusive with -config
		{"-csv", "out.csv"},                                          // archive flags are portfolio-only
		{"-json", "out.json", "-grid"},                               // even with -grid
		{"-portfolio", "missing.json", "-grid", "-cache-dir", "off"}, // unreadable file
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestGridBadAxisFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "-rtts", "later", "-cache-dir", "off"},
		{"-grid", "-ccs", "vegas", "-cache-dir", "off"},
		{"-grid", "-concs", "many", "-cache-dir", "off"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestGridFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "-config", "portfolio.json", "-cache-dir", "off"},
		{"-grid", "-sensitivity", "theta", "-cache-dir", "off"},
		{"-cache-stats"}, // only grid runs touch the caches
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
