package workload

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/tcpsim"
)

// quickSweepShape mirrors experiments.QuickSweep (which this package
// cannot import without a cycle): the scaled-down Table 2 sweep used by
// tests and CI.
func quickSweepShape() SweepConfig {
	cfg := DefaultSweep()
	cfg.Duration = 3 * time.Second
	cfg.Concurrencies = []int{1, 3, 5, 6, 7, 8}
	cfg.ParallelFlows = []int{2, 8}
	return cfg
}

// TestSweepDeterminism is the reproduction's bit-identity contract: the
// serial reference sweep, the grid executor at several worker counts,
// the SoA engine with no cross-cell buffer reuse (a fresh engine per
// cell), and every cached path must produce byte-identical SweepResult
// rows. Rows are compared via their JSON encoding — Go prints floats
// with round-trip precision, so equal bytes means equal bits.
func TestSweepDeterminism(t *testing.T) {
	cfg := quickSweepShape()
	a := AxesFromSweep(cfg)

	encode := func(rows []SweepRow) string {
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	sweepRows := func(g *GridResult) []SweepRow {
		rows := make([]SweepRow, len(g.Rows))
		for i := range g.Rows {
			rows[i] = g.Rows[i].SweepRow
		}
		return rows
	}
	executor := func(workers int) func() ([]SweepRow, error) {
		return func() ([]SweepRow, error) {
			g, err := RunGridParallel(a, workers)
			if err != nil {
				return nil, err
			}
			return sweepRows(g), nil
		}
	}
	cached := func(c *GridCache, a Axes) ([]SweepRow, error) {
		g, err := c.Get(a, 0)
		if err != nil {
			return nil, err
		}
		return sweepRows(g), nil
	}

	baseline, err := referenceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(baseline.Rows)

	drivers := []struct {
		name string
		run  func() ([]SweepRow, error)
	}{
		{"executor workers=1", executor(1)},
		{"executor workers=4", executor(4)},
		{"executor workers=GOMAXPROCS", executor(runtime.GOMAXPROCS(0))},
		{"fresh engine per cell", func() ([]SweepRow, error) {
			var rows []SweepRow
			for _, p := range cfg.ParallelFlows {
				for _, conc := range cfg.Concurrencies {
					// Fresh engine AND nil scratch: this driver exercises the
					// allocate-per-cell path against the scratch-reusing
					// drivers above, so the two assembly modes are held
					// bit-identical.
					row, err := referenceSweepCell(cfg, conc, p, tcpsim.NewEngine(), nil)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row)
				}
			}
			return rows, nil
		}},
		{"cached", func() ([]SweepRow, error) {
			PurgeGridCache()
			r, err := RunSweepCached(cfg, 0)
			if err != nil {
				return nil, err
			}
			return r.Rows, nil
		}},
		{"disk cached (store then warm load)", func() ([]SweepRow, error) {
			dir := t.TempDir()
			cold := NewGridCache()
			cold.SetDiskDir(dir)
			if _, err := cold.Get(a, 0); err != nil {
				return nil, err
			}
			warm := NewGridCache()
			warm.SetDiskDir(dir)
			return cached(warm, a)
		}},
		{"mixed cell-store assembly (half the plane pre-seeded)", func() ([]SweepRow, error) {
			// Pre-compute a sub-sweep so the cell store holds half the
			// cells, then assemble the full sweep from loaded + fresh
			// cells — the incremental planner's mixed path.
			dir := t.TempDir()
			subCfg := cfg
			subCfg.ParallelFlows = cfg.ParallelFlows[:1]
			seeder := NewGridCache()
			seeder.SetDiskDir(dir)
			if _, err := seeder.Get(AxesFromSweep(subCfg), 0); err != nil {
				return nil, err
			}
			mixed := NewGridCache()
			mixed.SetDiskDir(dir)
			return cached(mixed, a)
		}},
	}
	for _, d := range drivers {
		rows, err := d.run()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got := encode(rows); got != want {
			t.Errorf("%s: rows not byte-identical to the serial reference sweep", d.name)
		}
	}
}

// TestKeepClientResults checks the memory knob: rows carry full client
// results only when asked, and the compact TransferTimes always agrees
// with them.
func TestKeepClientResults(t *testing.T) {
	cfg := fastSweep()
	lean, err := RunSweepCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range lean.Rows {
		if row.Result != nil {
			t.Fatalf("conc=%d P=%d: Result retained with KeepClientResults off", row.Concurrency, row.ParallelFlows)
		}
		if len(row.TransferTimes) == 0 {
			t.Fatalf("conc=%d P=%d: missing TransferTimes", row.Concurrency, row.ParallelFlows)
		}
	}

	cfg.KeepClientResults = true
	full, err := RunSweepCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range full.Rows {
		if row.Result == nil {
			t.Fatalf("row %d: Result dropped with KeepClientResults on", i)
		}
		if len(row.TransferTimes) != len(row.Result.Clients) {
			t.Fatalf("row %d: %d transfer times vs %d clients", i, len(row.TransferTimes), len(row.Result.Clients))
		}
		for j, c := range row.Result.Clients {
			if row.TransferTimes[j] != c.TransferTime() {
				t.Fatalf("row %d client %d: TransferTimes %v != client %v", i, j, row.TransferTimes[j], c.TransferTime())
			}
		}
		// The knob must not change the measured rows themselves.
		if row.Worst != lean.Rows[i].Worst || row.SSS != lean.Rows[i].SSS {
			t.Fatalf("row %d: KeepClientResults changed measurements", i)
		}
	}

	// Pooled population must be identical either way.
	if full.AllTransferTimes().Len() != lean.AllTransferTimes().Len() {
		t.Fatal("AllTransferTimes depends on KeepClientResults")
	}
}
