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
func quickSweepShape() Axes {
	cfg := DefaultSweep()
	cfg.Duration = 3 * time.Second
	cfg.Concurrencies = []int{1, 3, 5, 6, 7, 8}
	cfg.ParallelFlows = []int{2, 8}
	return cfg
}

// TestSweepDeterminism is the reproduction's bit-identity contract: the
// serial reference sweep, the grid executor at several worker counts,
// the SoA engine with no cross-cell buffer reuse (a fresh engine per
// cell), and every cached path must produce byte-identical rows. Rows are compared via their JSON encoding — Go prints floats
// with round-trip precision, so equal bytes means equal bits.
func TestSweepDeterminism(t *testing.T) {
	cfg := quickSweepShape()
	a := cfg

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
	want := encode(baseline)

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
					// Fresh engine AND fresh scratch: this driver shares no
					// buffer across cells, against the buffer-reusing
					// drivers above, so the two are held bit-identical.
					row, err := referenceSweepCell(cfg, conc, p, tcpsim.NewEngine(), &runScratch{})
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
			r, err := RunGridCached(cfg, 0)
			if err != nil {
				return nil, err
			}
			return sweepRows(r), nil
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
			if _, err := seeder.Get(subCfg, 0); err != nil {
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

// TestExperimentReproducesRow: Run on a grid's Axes.Experiment(cell)
// reproduces that cell's row — the contract behind per-client logs of
// cached cells — and its per-client transfer times are the row's
// TransferTimes, in client order.
func TestExperimentReproducesRow(t *testing.T) {
	g, err := RunGridCached(fastSweep(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range g.Rows {
		res, err := Run(g.Axes.Experiment(row.Cell))
		if err != nil {
			t.Fatal(err)
		}
		if len(row.TransferTimes) != len(res.Clients) {
			t.Fatalf("row %d: %d transfer times vs %d clients", i, len(row.TransferTimes), len(res.Clients))
		}
		for j, c := range res.Clients {
			if row.TransferTimes[j] != c.TransferTime() {
				t.Fatalf("row %d client %d: TransferTimes %v != client %v", i, j, row.TransferTimes[j], c.TransferTime())
			}
		}
		if row.Worst != res.WorstFCT || row.SSS != res.SSS || row.Utilization != res.MeanUtilization {
			t.Fatalf("row %d: Run measured %v/%v/%v, row holds %v/%v/%v", i,
				res.WorstFCT, res.SSS, res.MeanUtilization, row.Worst, row.SSS, row.Utilization)
		}
	}
}
