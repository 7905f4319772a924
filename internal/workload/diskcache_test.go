package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// rowsJSON encodes sweep rows for byte-identity comparison.
// gridRowsJSON encodes grid rows for byte-identity comparison.
func gridRowsJSON(t *testing.T, rows []GridRow) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// segmentRecordCount reports how many records the directory's segment
// store indexes right now.
func segmentRecordCount(dir string) int {
	s := segmentStore(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLoaded()
	return len(s.index)
}

// looseRecordCount counts loose v1 per-cell files in the directory.
func looseRecordCount(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// TestDiskCacheWarmSweep is the disk-persistence contract: a second
// cache in a fresh process (ResetSegmentStores drops the in-memory
// segment index) pointed at the same directory serves the sweep
// entirely from cell records — zero engine runs — and the loaded rows
// are byte-identical to the computed ones.
func TestDiskCacheWarmSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := fastSweep()
	a := cfg

	cold := NewGridCache()
	cold.SetDiskDir(dir)
	first, err := cold.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One segment record per cell, addressable by cell fingerprint, and
	// no loose per-cell files (the v1 layout is read-only since v2).
	if n, want := segmentRecordCount(dir), cfg.Size(); n != want {
		t.Fatalf("segment holds %d records, want %d", n, want)
	}
	if n := looseRecordCount(t, dir); n != 0 {
		t.Fatalf("cold run wrote %d loose per-cell files, want 0 (segment only)", n)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	before := EngineRunCount()
	second, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("warm disk path ran %d experiments, want 0", runs)
	}
	if gridRowsJSON(t, second.Rows) != gridRowsJSON(t, first.Rows) {
		t.Fatal("disk-loaded rows not byte-identical to computed rows")
	}
}

// TestDiskCacheWarmGrid is the same contract for multi-axis grids.
func TestDiskCacheWarmGrid(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()

	cold := NewGridCache()
	cold.SetDiskDir(dir)
	first, err := cold.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	before := EngineRunCount()
	second, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("warm disk path ran %d experiments, want 0", runs)
	}
	if gridRowsJSON(t, first.Rows) != gridRowsJSON(t, second.Rows) {
		t.Fatal("disk-loaded grid rows not byte-identical to computed rows")
	}
}

// subAxes shrinks fastAxes (2 conc × 2 P × 2 RTTs × 2 buffers, 16
// cells) to a strictly contained sub-grid: 1 conc × 2 P × 1 RTT × 1
// buffer = 2 cells, every axis value drawn from the superset's.
func subAxes() Axes {
	a := fastAxes()
	a.Concurrencies = a.Concurrencies[1:] // {6}
	a.RTTs = a.RTTs[1:]                   // {32ms}
	a.Buffers = a.Buffers[1:]             // {2MB}
	return a
}

// TestSubGridWarmFromSuperset is the PR's acceptance criterion: a
// sub-grid whose axis values are a subset of a previously-run grid's is
// served entirely from the superset's cell records — zero engine runs —
// and its rows are byte-identical to a cold serial RunGrid of the same
// Axes.
func TestSubGridWarmFromSuperset(t *testing.T) {
	dir := t.TempDir()

	super := NewGridCache()
	super.SetDiskDir(dir)
	if _, err := super.Get(fastAxes(), 0); err != nil {
		t.Fatal(err)
	}

	sub := subAxes()
	cold, err := RunGrid(sub) // the reference: cold serial, no caches
	if err != nil {
		t.Fatal(err)
	}

	ResetSegmentStores() // a fresh process: index reloads from the sidecar
	fresh := NewGridCache()
	fresh.SetDiskDir(dir)
	before := EngineRunCount()
	warm, err := fresh.Get(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("sub-grid ran %d experiments, want 0 (all cells in superset records)", runs)
	}
	if gridRowsJSON(t, warm.Rows) != gridRowsJSON(t, cold.Rows) {
		t.Fatal("sub-grid assembled from superset records not byte-identical to cold serial RunGrid")
	}
}

// TestOverlappingGridReusesSharedCells: a second grid that only partially
// overlaps the first runs the engine exactly for the cells it does not
// share.
func TestOverlappingGridReusesSharedCells(t *testing.T) {
	dir := t.TempDir()

	first := fastAxes()
	first.Buffers = first.Buffers[:1] // 2 conc × 2 P × 2 RTTs × 1 buffer = 8 cells
	c1 := NewGridCache()
	c1.SetDiskDir(dir)
	if _, err := c1.Get(first, 0); err != nil {
		t.Fatal(err)
	}

	second := fastAxes()
	second.Buffers = second.Buffers[1:] // disjoint buffer axis
	second.RTTs = second.RTTs[:1]       // 2 conc × 2 P × 1 RTT × 1 buffer = 4 cells
	overlap := fastAxes()               // superset of both: 16 cells

	c2 := NewGridCache()
	c2.SetDiskDir(dir)
	if _, err := c2.Get(second, 0); err != nil {
		t.Fatal(err)
	}

	// The full grid now misses only the cells neither prior grid covered:
	// 16 − 8 (first) − 4 (second) = 4.
	c3 := NewGridCache()
	c3.SetDiskDir(dir)
	before := EngineRunCount()
	g, err := c3.Get(overlap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 4 {
		t.Fatalf("overlapping grid ran %d experiments, want 4 (12 of 16 cells already stored)", runs)
	}
	// And the mixed cached/fresh assembly must still be bit-identical.
	cold, err := RunGrid(overlap)
	if err != nil {
		t.Fatal(err)
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, cold.Rows) {
		t.Fatal("mixed cached/fresh assembly not byte-identical to cold serial RunGrid")
	}
}

// TestSweepSharesCellsWithGrid: the Table 2 grid persists through the
// same cell store as every grid, so a grid containing a previously-run
// sweep's plane reuses its cells (and vice versa).
func TestSweepSharesCellsWithGrid(t *testing.T) {
	dir := t.TempDir()
	SetDiskCacheDir(dir)
	t.Cleanup(func() { SetDiskCacheDir(""); PurgeGridCache() })
	cfg := fastSweep()
	PurgeGridCache()
	if _, err := RunGridCached(cfg, 0); err != nil {
		t.Fatal(err)
	}

	// A grid that strictly contains the sweep's plane: the sweep's cells
	// load, only the second RTT's execute.
	grid := cfg
	grid.RTTs = []time.Duration{cfg.Net.BaseRTT, 2 * cfg.Net.BaseRTT}
	gc := NewGridCache()
	gc.SetDiskDir(dir)
	before := EngineRunCount()
	if _, err := gc.Get(grid, 0); err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != int64(cfg.Size()) {
		t.Fatalf("grid over a cached sweep's plane ran %d experiments, want %d (the new RTT only)", runs, cfg.Size())
	}

	// And back: the sweep re-assembles from the store.
	PurgeGridCache()
	before = EngineRunCount()
	if _, err := RunGridCached(cfg, 0); err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("sweep over a grid's stored cells ran %d experiments, want 0", runs)
	}
}

// TestDiskCacheSingleFlight: concurrent readers of one fingerprint on a
// cold cache trigger exactly one sweep computation.
func TestDiskCacheSingleFlight(t *testing.T) {
	dir := t.TempDir()
	cfg := fastSweep()
	a := cfg
	c := NewGridCache()
	c.SetDiskDir(dir)

	before := EngineRunCount()
	const readers = 8
	results := make([]*GridResult, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Get(a, 2)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if runs := EngineRunCount() - before; runs != int64(cfg.Size()) {
		t.Errorf("%d readers ran %d experiments, want exactly one sweep (%d)", readers, runs, cfg.Size())
	}
	for i := 1; i < readers; i++ {
		if results[i] != results[0] {
			t.Fatal("readers did not share the single-flight result")
		}
	}
}

func TestPurgeDiskCache(t *testing.T) {
	dir := t.TempDir()
	c := NewGridCache()
	c.SetDiskDir(dir)
	if _, err := c.Get(fastAxes(), 0); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "NOTES.txt")
	if err := os.WriteFile(keep, []byte("not a cache file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PurgeDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".json" || name == segmentFileName || name == segmentIndexName {
			t.Errorf("cache file %s survived purge", name)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("purge removed unrelated file: %v", err)
	}
	// The in-memory segment index must not outlive the purged files: a
	// follow-up run is fully cold.
	if n := segmentRecordCount(dir); n != 0 {
		t.Errorf("purge left %d records in the in-memory segment index", n)
	}
	// A missing directory is not an error.
	if err := PurgeDiskCache(filepath.Join(dir, "missing")); err != nil {
		t.Errorf("purge of missing dir: %v", err)
	}
}

func TestResolveCacheDir(t *testing.T) {
	for _, off := range []string{"off", "none"} {
		dir, err := ResolveCacheDir(off)
		if err != nil || dir != "" {
			t.Errorf("ResolveCacheDir(%q) = %q, %v; want disabled", off, dir, err)
		}
	}
	if dir, err := ResolveCacheDir("/tmp/explicit"); err != nil || dir != "/tmp/explicit" {
		t.Errorf("explicit dir = %q, %v", dir, err)
	}
	t.Setenv(cacheDirEnv, "/tmp/from-env")
	if dir, err := ResolveCacheDir(""); err != nil || dir != "/tmp/from-env" {
		t.Errorf("env dir = %q, %v", dir, err)
	}

	// No resolvable location at all (minimal container: no CACHE_DIR, no
	// HOME) degrades to persistence off, never an error — CLIs must keep
	// working without a cache.
	t.Setenv(cacheDirEnv, "")
	t.Setenv("HOME", "")
	t.Setenv("XDG_CACHE_HOME", "")
	if dir, err := ResolveCacheDir(""); err != nil || dir != "" {
		t.Errorf("unresolvable default = %q, %v; want persistence off", dir, err)
	}
}

// TestSetDiskCacheDirProcessWide wires the default caches to a temp dir
// and back, asserting RunGridCached persists and re-serves from disk.
func TestSetDiskCacheDirProcessWide(t *testing.T) {
	dir := t.TempDir()
	SetDiskCacheDir(dir)
	defer SetDiskCacheDir("")
	defer PurgeGridCache()

	cfg := fastSweep()
	cfg.Duration = 1 * 1e9 // 1 s, distinct from other tests' entries
	first, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	PurgeGridCache()
	before := EngineRunCount()
	second, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("warm process-wide path ran %d experiments, want 0", runs)
	}
	if gridRowsJSON(t, first.Rows) != gridRowsJSON(t, second.Rows) {
		t.Fatal("process-wide disk round-trip changed rows")
	}
}
