package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestMain points CACHE_DIR at a throwaway directory so a test that
// omits -cache-dir can never read or write the developer's real sweep
// cache.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ssslab-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("CACHE_DIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestSimMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-seconds", "2", "-concurrency", "6", "-flows", "8", "-cache-dir", "off"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"offered load:  96%", "worst FCT:", "SSS:", "regime:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestSimScheduled(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-seconds", "2", "-strategy", "scheduled", "-cache-dir", "off"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scheduled") {
		t.Errorf("strategy missing:\n%s", out.String())
	}
}

func TestSimCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.csv")
	var out strings.Builder
	if err := run([]string{"-seconds", "1", "-csv", path, "-cache-dir", "off"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "client_id") {
		t.Errorf("csv content: %s", data)
	}
}

// TestSimRepeatedInvocationWarm: the same single-experiment invocation
// served from the disk cache runs zero simulations and prints the same
// report.
func TestSimRepeatedInvocationWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-seconds", "2", "-concurrency", "6", "-cache-dir", dir}

	// Other tests may have memoized these axes with persistence off; a
	// real CLI invocation always starts cold.
	workload.PurgeGridCache()

	var cold strings.Builder
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	// Empty the in-memory caches so the second run can only be served
	// from disk — as a fresh process invocation would be.
	workload.PurgeGridCache()

	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("warm invocation ran %d experiments, want 0", runs)
	}
	if warm.String() != cold.String() {
		t.Errorf("warm output differs:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

// gridArgs sweeps three axes (RTT × buffer × parallel flows) — the
// acceptance shape for -grid.
func gridArgs(cacheDir string) []string {
	return []string{"-grid", "-seconds", "1", "-concurrency", "6",
		"-rtts", "8ms,32ms", "-buffers", "auto,1MB", "-pflows", "2,8",
		"-cache-dir", cacheDir}
}

func TestGridMode(t *testing.T) {
	var out strings.Builder
	if err := run(gridArgs("off"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"grid: 8 cells",
		"2 RTTs x 2 buffers",
		"SSS", "Regime",
		"stream-vs-store",
		"break-even",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
	// 8 cells → 8 table rows.
	if rows := strings.Count(s, "500.00 MB |"); rows != 8 {
		t.Errorf("table has %d rows, want 8:\n%s", rows, s)
	}
}

// TestGridWarmDiskCache is the PR's acceptance criterion: a second
// invocation of the same -grid command is served entirely from the disk
// cache — zero engine runs — and reports identical results.
func TestGridWarmDiskCache(t *testing.T) {
	dir := t.TempDir()

	// Start cold, as a real CLI invocation would.
	workload.PurgeGridCache()

	var cold strings.Builder
	if err := run(gridArgs(dir), &cold); err != nil {
		t.Fatal(err)
	}
	workload.PurgeGridCache()

	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(gridArgs(dir), &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("warm grid invocation ran %d experiments, want 0", runs)
	}
	if warm.String() != cold.String() {
		t.Errorf("warm output differs:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

// TestCacheStats: -cache-stats reports how the grid was served — every
// cell from the engine when cold, every cell from disk when warm, and
// zero engine runs for a sub-grid contained in an earlier superset run.
func TestCacheStats(t *testing.T) {
	dir := t.TempDir()
	workload.PurgeGridCache()

	var cold strings.Builder
	if err := run(append(gridArgs(dir), "-cache-stats"), &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "cache-stats: cells=8 memo=0 disk=0 segment=0 engine-runs=8") {
		t.Errorf("cold stats line missing:\n%s", cold.String())
	}

	// A strict sub-grid of the superset (1 of 2 RTTs × 1 of 2 buffers ×
	// both P values = 2 of the 8 cells), in a fresh "process": every cell
	// must come from the superset's records, zero engine runs.
	workload.PurgeGridCache()
	subArgs := []string{"-grid", "-seconds", "1", "-concurrency", "6",
		"-rtts", "32ms", "-buffers", "1MB", "-pflows", "2,8",
		"-cache-dir", dir, "-cache-stats"}
	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(subArgs, &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("sub-grid ran %d experiments, want 0", runs)
	}
	if !strings.Contains(warm.String(), "cache-stats: cells=2 memo=0 disk=0 segment=2 engine-runs=0") {
		t.Errorf("warm sub-grid stats line missing:\n%s", warm.String())
	}
}

// TestCacheStatsLiveModeUsageError: -cache-stats outside sim mode must
// error with a usage message, not silently ignore the flag.
func TestCacheStatsLiveModeUsageError(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-mode", "live", "-cache-stats"}, &out)
	if err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("live -cache-stats error = %v, want usage message", err)
	}
}

// TestCompactCache: -compact-cache rewrites a seeded directory into a
// segment file + sidecar and a subsequent warm grid run is served
// entirely from the compacted segment.
func TestCompactCache(t *testing.T) {
	dir := t.TempDir()
	workload.PurgeGridCache()

	var cold strings.Builder
	if err := run(gridArgs(dir), &cold); err != nil {
		t.Fatal(err)
	}

	var summary strings.Builder
	if err := run([]string{"-compact-cache", "-cache-dir", dir}, &summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "compacted") || !strings.Contains(summary.String(), "8 records") {
		t.Errorf("compaction summary: %q", summary.String())
	}
	for _, name := range []string{"cells.seg", "cells.idx"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s missing after compaction: %v", name, err)
		}
	}

	workload.PurgeGridCache()
	workload.ResetSegmentStores()
	var warm strings.Builder
	if err := run(append(gridArgs(dir), "-cache-stats"), &warm); err != nil {
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
		{"-compact-cache", "-portfolio", "x.json"},
		{"-compact-cache", "-mode", "live"},
		{"-compact-cache", "-cache-stats"},
		{"-compact-cache", "-csv", "out.csv"},
		{"-compact-cache", "-concs", "1,4"},
		{"-compact-cache", "-hops", "edge:10Gbps:2ms,wan:100Gbps:30ms"},
		{"-compact-cache", "-edge-caps", "10Gbps,60Gbps"},
		{"-compact-cache", "-wan-rtts", "20ms,60ms"},
		{"-compact-cache", "-ingress-buffers", "auto,4MB"},
		{"-compact-cache", "-seconds", "5"},
		{"-compact-cache", "-theta", "2"},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "standalone maintenance mode") ||
			!strings.Contains(err.Error(), "usage:") || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("run(%v) error = %v, want standalone-mode usage error naming %s", args, err, args[1])
		}
	}
	// And with persistence off there is nothing to compact.
	var out strings.Builder
	if err := run([]string{"-compact-cache", "-cache-dir", "off"}, &out); err == nil {
		t.Error("compact with -cache-dir off succeeded, want error")
	}
}

func TestGridCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.csv")
	var out strings.Builder
	args := append(gridArgs("off"), "-csv", path)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rtt", "sss"} {
		if !strings.Contains(strings.ToLower(string(data)), want) {
			t.Errorf("grid csv missing %q:\n%s", want, data)
		}
	}
}

// examplePortfolio is the runnable portfolio shipped with the repo.
const examplePortfolio = "../../examples/portfolio/portfolio.json"

// portfolioArgs sweeps RTT × concurrency and summarizes the example
// portfolio over the grid.
func portfolioArgs(cacheDir string) []string {
	return []string{"-grid", "-seconds", "1", "-portfolio", examplePortfolio,
		"-rtts", "8ms,64ms", "-concs", "2,6", "-cache-dir", cacheDir}
}

func TestPortfolioSummaryMode(t *testing.T) {
	var out strings.Builder
	if err := run(portfolioArgs("off"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"portfolio: portfolio (4 scenarios)",
		"Scenario", "Remote", "Local", "Infeasible",
		"XPCS", "TomoBank", "CryoML", "HLT",
		"mean stream fraction:",
		"per-scenario break-even frontiers:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

// TestPortfolioWarmDiskCache: warm portfolio summaries are pure
// post-processing of the cached grid — zero engine runs, identical text.
func TestPortfolioWarmDiskCache(t *testing.T) {
	dir := t.TempDir()

	workload.PurgeGridCache()
	var cold strings.Builder
	if err := run(portfolioArgs(dir), &cold); err != nil {
		t.Fatal(err)
	}
	workload.PurgeGridCache()

	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(portfolioArgs(dir), &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("warm portfolio invocation ran %d experiments, want 0", runs)
	}
	if warm.String() != cold.String() {
		t.Errorf("warm output differs:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
}

func TestPortfolioCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "portfolio.csv")
	var out strings.Builder
	if err := run(append(portfolioArgs("off"), "-csv", path), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario", "decision", "XPCS"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("portfolio csv missing %q:\n%s", want, data)
		}
	}
}

func TestLiveMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-mode", "live", "-seconds", "1", "-concurrency", "2",
		"-flows", "2", "-size", "256KB"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "live loopback") {
		t.Errorf("live output:\n%s", out.String())
	}
}

func TestBadArgs(t *testing.T) {
	cases := [][]string{
		{"-mode", "quantum"},
		{"-strategy", "chaotic"},
		{"-mode", "live", "-strategy", "chaotic"},
		{"-size", "banana"},
		{"-mode", "live", "-size", "banana"},
		{"-seconds", "0", "-cache-dir", "off"},
		{"-mode", "live", "-grid", "-rtts", "8ms,64ms"},
		{"-grid", "-rtts", "soon", "-cache-dir", "off"},
		{"-grid", "-ccs", "bbr", "-cache-dir", "off"},
		{"-grid", "-buffers", "big", "-cache-dir", "off"},
		{"-grid", "-local", "banana", "-cache-dir", "off"},
		{"-portfolio", examplePortfolio, "-cache-dir", "off"},
		{"-mode", "live", "-portfolio", examplePortfolio},
		{"-mode", "live", "-cache-stats"},
		{"-grid", "-portfolio", "missing.json", "-cache-dir", "off"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestTraceLogRoundTrip(t *testing.T) {
	e := workload.DefaultExperiment()
	e.Duration = 3 * time.Second
	e.Concurrency = 1
	res, err := workload.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	l := traceLog(res)
	if len(l.Transfers) != len(res.Clients) {
		t.Fatalf("log entries = %d, want %d", len(l.Transfers), len(res.Clients))
	}
	if l.Meta["strategy"] != "simultaneous" || l.Meta["concurrency"] != "1" {
		t.Errorf("meta = %v", l.Meta)
	}
	max, err := l.MaxDuration()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(max-res.WorstFCT.Seconds()) > 1e-9 {
		t.Errorf("log max %v vs result worst %v", max, res.WorstFCT)
	}
}

// TestLiveTransportMatchesTraceSchema runs a small live load and checks
// that its trace CSV has the simulated trace's schema — -csv output from
// the two modes must be interchangeable downstream.
func TestLiveTransportMatchesTraceSchema(t *testing.T) {
	g, err := transport.ListenServers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	liveLog, err := transport.RunLoad(g, transport.LoadConfig{
		Seconds:     1,
		Concurrency: 2,
		Client:      transport.ClientConfig{Flows: 2, Bytes: 512 * units.KB},
	})
	if err != nil {
		t.Fatal(err)
	}

	e := workload.DefaultExperiment()
	e.Duration = time.Second
	simRes, err := workload.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	simLog := traceLog(simRes)

	var liveBuf, simBuf strings.Builder
	if err := liveLog.WriteCSV(&liveBuf); err != nil {
		t.Fatal(err)
	}
	if err := simLog.WriteCSV(&simBuf); err != nil {
		t.Fatal(err)
	}
	liveHeader := strings.SplitN(liveBuf.String(), "\n", 2)[0]
	simHeader := strings.SplitN(simBuf.String(), "\n", 2)[0]
	if liveHeader != simHeader {
		t.Fatalf("trace schemas diverge: %q vs %q", liveHeader, simHeader)
	}
}
