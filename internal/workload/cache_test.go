package workload

import (
	"errors"
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
		mutate func(*Axes)
	}{
		{"duration", func(c *Axes) { c.Duration = 7 * time.Second }},
		{"concurrencies", func(c *Axes) { c.Concurrencies = []int{2, 4, 8} }},
		{"parallel flows", func(c *Axes) { c.ParallelFlows = []int{4} }},
		{"transfer size", func(c *Axes) { c.TransferSizes = []units.ByteSize{units.GB} }},
		{"strategy", func(c *Axes) { c.Strategy = SpawnScheduled }},
		{"seed", func(c *Axes) { c.Net.Seed = 99 }},
		{"capacity", func(c *Axes) { c.Net.Capacity = 10 * units.Gbps }},
		{"rtt", func(c *Axes) { c.Net.BaseRTT = 32 * time.Millisecond }},
		{"mss", func(c *Axes) { c.Net.MSS = 1460 * units.Byte }},
		{"buffer", func(c *Axes) { c.Net.Buffer = units.MB }},
		{"init cwnd", func(c *Axes) { c.Net.InitCwndSegments = 4 }},
		{"rto", func(c *Axes) { c.Net.RTO = 400 * time.Millisecond }},
		{"cc", func(c *Axes) { c.Net.CC = tcpsim.Cubic }},
		{"cross fraction", func(c *Axes) { c.Net.CrossFraction = 0.3 }},
	}
	fingerprint := func(c Axes) string { return c.Fingerprint() }
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
// cache's soundness: Axes.Fingerprint and cellFingerprint enumerate
// config fields by hand, so adding a field to any of these structs
// without teaching them about it would silently alias distinct grids or
// cells. If this test fails, update them (and the mutation tables
// above) in the same change.
func TestFingerprintCoversAllFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"Axes", reflect.TypeOf(Axes{}), 14},
		{"Experiment", reflect.TypeOf(Experiment{}), 6},
		{"tcpsim.Config", reflect.TypeOf(tcpsim.Config{}), 9},
	} {
		if got := tc.typ.NumField(); got != tc.want {
			t.Errorf("%s has %d fields, the fingerprints know %d — update Axes.Fingerprint / cellFingerprint",
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
		"cross":       func(e *Experiment) { e.Net.CrossFraction = 0.3 },
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

// sharesRows reports whether two grid results are views of one memo
// entry: their rows alias the same cached TransferTimes.
func sharesRows(a, b *GridResult) bool {
	return len(a.Rows) > 0 && len(a.Rows) == len(b.Rows) &&
		&a.Rows[0].TransferTimes[0] == &b.Rows[0].TransferTimes[0]
}

// TestSweepCacheHitsShareResult: repeat runs of the Table 2 grid share
// one entry of the process-wide grid cache, whatever the worker count
// and however the grid spells its singleton axes; a different grid gets
// its own; PurgeGridCache drops them.
func TestSweepCacheHitsShareResult(t *testing.T) {
	PurgeGridCache()
	t.Cleanup(PurgeGridCache)
	cfg := fastSweep()
	a, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGridCached(cfg, 2) // worker count must not key the cache
	if err != nil {
		t.Fatal(err)
	}
	if !sharesRows(a, b) {
		t.Fatal("cache miss for identical config")
	}
	filled := cfg
	filled.RTTs = []time.Duration{cfg.Net.BaseRTT}
	filled.CCs = []tcpsim.CongestionControl{cfg.Net.CC}
	g, err := RunGridCached(filled, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesRows(g, a) {
		t.Fatal("explicit singleton axes hold a separate memo entry")
	}
	if n := len(defaultGridCache.mem.entries); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}

	other := cfg
	other.Strategy = SpawnScheduled
	c, err := RunGridCached(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sharesRows(c, a) {
		t.Fatal("different strategy shared a cache entry")
	}
	if n := len(defaultGridCache.mem.entries); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}

	PurgeGridCache()
	if n := len(defaultGridCache.mem.entries); n != 0 {
		t.Fatalf("purged cache holds %d entries", n)
	}
	d, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sharesRows(d, a) {
		t.Fatal("purge did not drop the entry")
	}
}

// TestSweepCacheSingleFlight: concurrent RunGridCached calls for the
// Table 2 grid run it once and share the result.
func TestSweepCacheSingleFlight(t *testing.T) {
	PurgeGridCache()
	t.Cleanup(PurgeGridCache)
	cfg := fastSweep()
	const callers = 8
	results := make([]*GridResult, callers)
	before := EngineRunCount()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := RunGridCached(cfg, 1)
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
	if n := len(defaultGridCache.mem.entries); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

func TestSweepCachePropagatesErrors(t *testing.T) {
	t.Cleanup(PurgeGridCache)
	cfg := fastSweep()
	undrainable(&cfg.Net) // every cell exceeds the horizon
	if _, err := RunGridCached(cfg, 2); err == nil {
		t.Fatal("horizon error swallowed by cache")
	}
	// Deterministic config → deterministic failure: the recomputed error
	// is the correct answer for repeat lookups too.
	if _, err := RunGridCached(cfg, 2); err == nil {
		t.Fatal("cached error lost on second lookup")
	}
}

// TestMemoEvictsErrors: a failed compute is returned but not kept, so
// the next get for the key computes again and memoizes its value.
func TestMemoEvictsErrors(t *testing.T) {
	var m memo[int]
	calls := 0
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 42, nil
	}
	if _, err := m.get("k", compute); err == nil {
		t.Fatal("first get: error swallowed")
	}
	if n := len(m.entries); n != 0 {
		t.Fatalf("errored entry kept: %d entries", n)
	}
	for i := 0; i < 2; i++ {
		v, err := m.get("k", compute)
		if err != nil || v != 42 {
			t.Fatalf("get %d after the error: %v, %v; want 42, nil", i+2, v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (one error, then one memoized value)", calls)
	}

	// Concurrent gets that share a failing compute all see its error,
	// and their evictions leave the map empty (run under -race).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.get("bad", func() (int, error) { return 0, errors.New("permanent") }); err == nil {
				t.Error("concurrent get: error swallowed")
			}
		}()
	}
	wg.Wait()
	if n := len(m.entries); n != 1 {
		t.Fatalf("after concurrent failures: %d entries, want only the memoized value", n)
	}
}
