package workload

// The grid-side allocation contracts, the workload mirror of
// tcpsim's TestEngineSteadyStateAllocs (PERFORMANCE.md): cell
// execution assembly and warm record loads both run on reused buffers,
// so a 10⁵-cell grid neither allocates per client on the way in nor
// garbage-collects its way through a warm open.

import (
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// TestCellAssemblyAllocs gates the execution-side assembly
// (runExperimentRow with a worker scratch): once the scratch is warm,
// the only allocation left per cell is the row's escaping
// TransferTimes slice — specs, per-client aggregation, the Result and
// its Clients, and the quantile sample all reuse the worker's buffers.
func TestCellAssemblyAllocs(t *testing.T) {
	for name, strat := range map[string]Strategy{
		"simultaneous": SpawnSimultaneous,
		"scheduled":    SpawnScheduled,
	} {
		t.Run(name, func(t *testing.T) {
			e := Experiment{
				Duration:      2 * time.Second,
				Concurrency:   4,
				ParallelFlows: 8,
				TransferSize:  0.25 * units.GB,
				Strategy:      strat,
				Net:           tcpsim.DefaultConfig(),
			}
			eng := tcpsim.NewEngine()
			var sc runScratch
			for i := 0; i < 2; i++ { // warm engine and scratch buffers
				if _, err := runExperimentRow(e, eng, &sc); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				if _, err := runExperimentRow(e, eng, &sc); err != nil {
					t.Fatal(err)
				}
			})
			// One alloc is the TransferTimes slice; allow one more for
			// runtime noise (e.g. a map/pool internals touch), not for a
			// per-client or per-spec regression.
			if avg > 2 {
				t.Fatalf("scratch-backed cell assembly allocates %.1f times per cell, want <= 2", avg)
			}
		})
	}
}

// TestGridAssemblyAllocs gates the warm-open load path: the whole warm
// assembly through planGrid — fingerprinting, the index lookup, the
// streaming read, binary decode, the acceptance check and row
// placement — measured per cell, the figure a 10⁵-cell warm open
// multiplies. Per cell that is the fingerprint and its index key plus
// the row's TransferTimes, NOT a JSON decoder's per-field garbage.
func TestGridAssemblyAllocs(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	seedCellRecords(t, dir, a)
	if _, err := CompactDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	ResetSegmentStores()
	t.Cleanup(ResetSegmentStores)

	na := a.normalized()
	store := &cellStore{}
	store.setDir(dir)
	warmGrid := func() {
		g, st, err := runGridIncrementalStats(na, 0, store)
		if err != nil {
			t.Fatal(err)
		}
		if st.CellsFromSegment != int64(na.Size()) || len(g.Rows) != na.Size() {
			t.Fatalf("warm assembly stats = %v, want all %d cells from the segment", st, na.Size())
		}
	}
	warmGrid() // index load, handle open, pool fill
	perCell := testing.AllocsPerRun(10, warmGrid) / float64(na.Size())
	t.Logf("warm grid assembly: %.1f allocs per cell", perCell)
	if perCell > 30 {
		t.Fatalf("warm grid assembly allocates %.1f times per cell, want <= 30", perCell)
	}
}

// oneCellGetAllocsBudget is the allocation budget of a one-cell warm
// GridCache.Get on a compacted segment: the count the per-cell fetch
// path this read path replaced measured on the same test body. The
// streaming path must not cost a small request more.
const oneCellGetAllocsBudget = 38

// TestOneCellWarmGetAllocs gates the smallest request through the one
// read path: a fresh cache (no memo) serving a single cell from a
// compacted, resident segment — validation, normalization, the memo
// entry, planning, one one-record stream and the sidecar check.
func TestOneCellWarmGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled buffers are not meaningful under -race")
	}
	dir := t.TempDir()
	a := fastAxes()
	seedCellRecords(t, dir, a)
	if _, err := CompactDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	ResetSegmentStores()
	t.Cleanup(ResetSegmentStores)

	one := a
	one.Concurrencies = a.Concurrencies[:1]
	one.ParallelFlows = a.ParallelFlows[:1]
	one.RTTs = a.RTTs[:1]
	one.Buffers = a.Buffers[:1]
	get := func() {
		c := NewGridCache()
		c.SetDiskDir(dir)
		_, st, err := c.GetStats(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.CellsFromSegment != 1 {
			t.Fatalf("one-cell warm get stats = %v, want the cell from the segment", st)
		}
	}
	get() // index load, handle open, pool fill
	avg := testing.AllocsPerRun(100, get)
	t.Logf("one-cell warm get: %.1f allocs", avg)
	if avg > oneCellGetAllocsBudget {
		t.Fatalf("one-cell warm get allocates %.1f times, want <= %d", avg, oneCellGetAllocsBudget)
	}
}
