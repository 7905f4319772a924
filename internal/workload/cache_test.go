package workload

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := fastSweep()
	mutations := []struct {
		name   string
		mutate func(*SweepConfig)
	}{
		{"duration", func(c *SweepConfig) { c.Duration = 7 * time.Second }},
		{"concurrencies", func(c *SweepConfig) { c.Concurrencies = []int{2, 4, 8} }},
		{"parallel flows", func(c *SweepConfig) { c.ParallelFlows = []int{4} }},
		{"transfer size", func(c *SweepConfig) { c.TransferSize = units.GB }},
		{"strategy", func(c *SweepConfig) { c.Strategy = SpawnScheduled }},
		{"keep results", func(c *SweepConfig) { c.KeepClientResults = true }},
		{"seed", func(c *SweepConfig) { c.Net.Seed = 99 }},
		{"capacity", func(c *SweepConfig) { c.Net.Capacity = 10 * units.Gbps }},
		{"rtt", func(c *SweepConfig) { c.Net.BaseRTT = 32 * time.Millisecond }},
		{"mss", func(c *SweepConfig) { c.Net.MSS = 1460 * units.Byte }},
		{"buffer", func(c *SweepConfig) { c.Net.Buffer = units.MB }},
		{"init cwnd", func(c *SweepConfig) { c.Net.InitCwndSegments = 4 }},
		{"rto", func(c *SweepConfig) { c.Net.RTO = 400 * time.Millisecond }},
		{"cc", func(c *SweepConfig) { c.Net.CC = tcpsim.Cubic }},
		{"record queue", func(c *SweepConfig) { c.Net.RecordQueue = true }},
		{"cross fraction", func(c *SweepConfig) { c.Net.Cross.Fraction = 0.3 }},
		{"cross period", func(c *SweepConfig) {
			c.Net.Cross.Fraction = 0.3
			c.Net.Cross.Period = time.Second
			c.Net.Cross.Duty = 0.5
		}},
		{"cross jitter", func(c *SweepConfig) {
			c.Net.Cross.Fraction = 0.3
			c.Net.Cross.Period = time.Second
			c.Net.Cross.Duty = 0.5
			c.Net.Cross.PhaseJitter = true
		}},
		{"max time", func(c *SweepConfig) { c.Net.MaxTime = 100 }},
	}
	// A sweep is memoized under its AxesFromSweep grid's fingerprint.
	fingerprint := func(c SweepConfig) string { return AxesFromSweep(c).Fingerprint() }
	seen := map[string]string{fingerprint(base): "base"}
	for _, m := range mutations {
		cfg := base
		m.mutate(&cfg)
		fp := fingerprint(cfg)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s: fingerprint collides with %s", m.name, prev)
		}
		seen[fp] = m.name
	}
	// Identity: same config, same fingerprint.
	if fingerprint(base) != fingerprint(fastSweep()) {
		t.Error("equal configs produced different fingerprints")
	}
}

// TestFingerprintCoversAllFields is the structural guard behind the
// cache's soundness: AxesFromSweep, Axes.Fingerprint and
// cellFingerprint enumerate config fields by hand, so adding a field to
// any of these structs without teaching them about it would silently
// alias distinct sweeps or cells. If this test fails, update them (and
// the mutation tables above) in the same change.
func TestFingerprintCoversAllFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"SweepConfig", reflect.TypeOf(SweepConfig{}), 7},
		{"Experiment", reflect.TypeOf(Experiment{}), 6},
		{"tcpsim.Config", reflect.TypeOf(tcpsim.Config{}), 11},
		{"tcpsim.CrossTraffic", reflect.TypeOf(tcpsim.CrossTraffic{}), 4},
	} {
		if got := tc.typ.NumField(); got != tc.want {
			t.Errorf("%s has %d fields, the fingerprints know %d — update AxesFromSweep / Axes.Fingerprint / cellFingerprint",
				tc.name, got, tc.want)
		}
	}
}

// TestCellFingerprintDistinguishesExperiments mirrors the sweep-level
// mutation table at cell granularity: every output-affecting Experiment
// field must move the cell fingerprint.
func TestCellFingerprintDistinguishesExperiments(t *testing.T) {
	base := DefaultExperiment()
	if !strings.HasPrefix(cellFingerprint(base), "cell;") {
		t.Fatalf("cell fingerprint %q lacks cell; prefix", cellFingerprint(base))
	}
	mutations := map[string]func(*Experiment){
		"duration":    func(e *Experiment) { e.Duration = 7 * time.Second },
		"concurrency": func(e *Experiment) { e.Concurrency = 7 },
		"flows":       func(e *Experiment) { e.ParallelFlows = 3 },
		"size":        func(e *Experiment) { e.TransferSize = units.GB },
		"strategy":    func(e *Experiment) { e.Strategy = SpawnScheduled },
		"seed":        func(e *Experiment) { e.Net.Seed = 99 },
		"rtt":         func(e *Experiment) { e.Net.BaseRTT = 32 * time.Millisecond },
		"buffer":      func(e *Experiment) { e.Net.Buffer = units.MB },
		"cc":          func(e *Experiment) { e.Net.CC = tcpsim.Cubic },
		"cross":       func(e *Experiment) { e.Net.Cross.Fraction = 0.3 },
		"capacity":    func(e *Experiment) { e.Net.Capacity = 10 * units.Gbps },
	}
	seen := map[string]string{cellFingerprint(base): "base"}
	for name, mutate := range mutations {
		e := base
		mutate(&e)
		fp := cellFingerprint(e)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
	if cellFingerprint(base) != cellFingerprint(DefaultExperiment()) {
		t.Error("equal experiments produced different cell fingerprints")
	}
}

// sharesRows reports whether two sweep results are views of one memo
// entry: their rows alias the same cached TransferTimes.
func sharesRows(a, b *SweepResult) bool {
	return len(a.Rows) > 0 && len(a.Rows) == len(b.Rows) &&
		&a.Rows[0].TransferTimes[0] == &b.Rows[0].TransferTimes[0]
}

// TestSweepCacheHitsShareResult: RunSweepCached is a view over the
// process-wide grid cache — repeat sweeps, and the sweep's own
// AxesFromSweep grid, share one memo entry; a different sweep gets its
// own; PurgeGridCache drops them.
func TestSweepCacheHitsShareResult(t *testing.T) {
	PurgeGridCache()
	t.Cleanup(PurgeGridCache)
	cfg := fastSweep()
	a, err := RunSweepCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweepCached(cfg, 2) // worker count must not key the cache
	if err != nil {
		t.Fatal(err)
	}
	if !sharesRows(a, b) {
		t.Fatal("cache miss for identical config")
	}
	g, err := RunGridCached(AxesFromSweep(cfg), 0)
	if err != nil {
		t.Fatal(err)
	}
	if &g.Rows[0].TransferTimes[0] != &a.Rows[0].TransferTimes[0] {
		t.Fatal("sweep and its AxesFromSweep grid hold separate memo entries")
	}
	if n := defaultGridCache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}

	other := cfg
	other.Strategy = SpawnScheduled
	c, err := RunSweepCached(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sharesRows(c, a) {
		t.Fatal("different strategy shared a cache entry")
	}
	if n := defaultGridCache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}

	PurgeGridCache()
	if n := defaultGridCache.Len(); n != 0 {
		t.Fatalf("purged cache holds %d entries", n)
	}
	d, err := RunSweepCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sharesRows(d, a) {
		t.Fatal("purge did not drop the entry")
	}
}

// TestSweepCacheSingleFlight: concurrent RunSweepCached calls for one
// sweep run it once and share the result.
func TestSweepCacheSingleFlight(t *testing.T) {
	PurgeGridCache()
	t.Cleanup(PurgeGridCache)
	cfg := fastSweep()
	const callers = 8
	results := make([]*SweepResult, callers)
	before := EngineRunCount()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunSweepCached(cfg, 1)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if runs := EngineRunCount() - before; runs != int64(cfg.Size()) {
		t.Errorf("%d callers ran %d experiments, want one sweep (%d)", callers, runs, cfg.Size())
	}
	for i := 1; i < callers; i++ {
		if !sharesRows(results[i], results[0]) {
			t.Fatal("concurrent calls returned distinct results")
		}
	}
	if n := defaultGridCache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

func TestSweepCachePropagatesErrors(t *testing.T) {
	t.Cleanup(PurgeGridCache)
	cfg := fastSweep()
	cfg.Net.MaxTime = 0.01 // every cell exceeds the horizon
	if _, err := RunSweepCached(cfg, 2); err == nil {
		t.Fatal("horizon error swallowed by cache")
	}
	// Deterministic config → deterministic failure: the cached error is
	// the correct answer for repeat lookups too.
	if _, err := RunSweepCached(cfg, 2); err == nil {
		t.Fatal("cached error lost on second lookup")
	}
}
