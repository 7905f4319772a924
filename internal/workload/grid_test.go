package workload

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// fastAxes is a small multi-axis grid for unit tests: 2 RTTs × 2 buffers
// × 2 flow counts × 2 concurrencies = 16 cells of 1-second experiments.
func fastAxes() Axes {
	return Axes{
		Duration:      1 * time.Second,
		Concurrencies: []int{2, 6},
		ParallelFlows: []int{2, 8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		RTTs:          []time.Duration{8 * time.Millisecond, 32 * time.Millisecond},
		Buffers:       []units.ByteSize{0, 2 * units.MB},
		Strategy:      SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
}

func TestAxesSizeAndCells(t *testing.T) {
	a := fastAxes()
	if got := a.NetPoints(); got != 4 {
		t.Fatalf("NetPoints = %d, want 4", got)
	}
	if got := a.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	cells := a.Cells()
	if len(cells) != 16 {
		t.Fatalf("len(Cells) = %d, want 16", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
	}
	// Network axes are outermost: the first four cells share the first
	// network point (rtt=8ms, buffer=auto) and walk the Table 2 plane
	// P-outer, conc-inner, matching sweep order.
	want := []struct {
		p, conc int
		rtt     time.Duration
		buf     units.ByteSize
	}{
		{2, 2, 8 * time.Millisecond, 0},
		{2, 6, 8 * time.Millisecond, 0},
		{8, 2, 8 * time.Millisecond, 0},
		{8, 6, 8 * time.Millisecond, 0},
		{2, 2, 8 * time.Millisecond, 2 * units.MB},
	}
	for i, w := range want {
		c := cells[i]
		if c.ParallelFlows != w.p || c.Concurrency != w.conc || c.RTT != w.rtt || c.Buffer != w.buf {
			t.Fatalf("cell %d = %+v, want %+v", i, c, w)
		}
	}
	// Last cell: every axis at its final value.
	last := cells[15]
	if last.RTT != 32*time.Millisecond || last.Buffer != 2*units.MB ||
		last.ParallelFlows != 8 || last.Concurrency != 6 {
		t.Fatalf("last cell = %+v", last)
	}
}

func TestAxesNormalizationFillsNetworkAxes(t *testing.T) {
	a := Axes{
		Duration:      time.Second,
		Concurrencies: []int{1},
		ParallelFlows: []int{2},
		TransferSizes: []units.ByteSize{units.MB},
		Net:           tcpsim.DefaultConfig(),
	}
	n := a.normalized()
	if len(n.RTTs) != 1 || n.RTTs[0] != a.Net.BaseRTT {
		t.Errorf("RTTs = %v", n.RTTs)
	}
	if len(n.Buffers) != 1 || n.Buffers[0] != a.Net.Buffer {
		t.Errorf("Buffers = %v", n.Buffers)
	}
	if len(n.CCs) != 1 || n.CCs[0] != a.Net.CC {
		t.Errorf("CCs = %v", n.CCs)
	}
	if len(n.CrossFractions) != 1 || n.CrossFractions[0] != a.Net.CrossFraction {
		t.Errorf("CrossFractions = %v", n.CrossFractions)
	}
	if a.Size() != 1 {
		t.Errorf("Size = %d, want 1", a.Size())
	}
	// Explicit singleton axes fingerprint identically to implied ones.
	explicit := a
	explicit.RTTs = []time.Duration{a.Net.BaseRTT}
	explicit.CCs = []tcpsim.CongestionControl{a.Net.CC}
	if a.Fingerprint() != explicit.Fingerprint() {
		t.Error("normalization changed the fingerprint")
	}
}

func TestAxesValidate(t *testing.T) {
	a := fastAxes()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		break_ func(*Axes)
	}{
		{"Concurrencies", func(a *Axes) { a.Concurrencies = nil }},
		{"ParallelFlows", func(a *Axes) { a.ParallelFlows = nil }},
		{"TransferSizes", func(a *Axes) { a.TransferSizes = nil }},
	} {
		bad := fastAxes()
		tc.break_(&bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if _, err := RunGrid(bad); err == nil {
			t.Errorf("%s: RunGrid accepted invalid axes", tc.name)
		}
	}
}

func TestAxesFingerprintDistinguishesAxes(t *testing.T) {
	base := fastAxes()
	if !strings.HasPrefix(base.Fingerprint(), "grid;") {
		t.Fatalf("fingerprint %q lacks grid; prefix", base.Fingerprint())
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mutate := range map[string]func(*Axes){
		"rtts":    func(a *Axes) { a.RTTs = []time.Duration{8 * time.Millisecond} },
		"buffers": func(a *Axes) { a.Buffers = []units.ByteSize{units.MB} },
		"ccs":     func(a *Axes) { a.CCs = []tcpsim.CongestionControl{tcpsim.Cubic} },
		"crosses": func(a *Axes) { a.CrossFractions = []float64{0.2} },
		"sizes":   func(a *Axes) { a.TransferSizes = []units.ByteSize{units.GB} },
		"conc":    func(a *Axes) { a.Concurrencies = []int{1} },
		"flows":   func(a *Axes) { a.ParallelFlows = []int{4} },
		"seed":    func(a *Axes) { a.Net.Seed = 99 },
		"strat":   func(a *Axes) { a.Strategy = SpawnScheduled },
	} {
		mod := fastAxes()
		mutate(&mod)
		fp := mod.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s: %q", name, prev, fp)
		}
		seen[fp] = name
	}
}

// referenceSweep is the serial Table 2 sweep, kept as the test-only
// reference the grid executor is held against: one reused engine, flow
// counts outer and concurrencies inner, per-cell seed = base seed +
// conc·100 + P. It reads only the Table 2 plane, the one transfer size,
// the strategy and Net of cfg, and is written out independently of the
// grid's cell enumeration, so a change to the grid's cell order or seed
// derivation shows up as a diff.
func referenceSweep(cfg Axes) ([]SweepRow, error) {
	if len(cfg.Concurrencies) == 0 || len(cfg.ParallelFlows) == 0 {
		return nil, fmt.Errorf("workload: empty sweep axes")
	}
	eng := tcpsim.NewEngine()
	var sc runScratch
	rows := make([]SweepRow, 0, len(cfg.Concurrencies)*len(cfg.ParallelFlows))
	for _, p := range cfg.ParallelFlows {
		for _, conc := range cfg.Concurrencies {
			row, err := referenceSweepCell(cfg, conc, p, eng, &sc)
			if err != nil {
				return nil, fmt.Errorf("workload: sweep cell conc=%d P=%d: %w", conc, p, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// referenceSweepCell executes one reference sweep cell on the given
// engine and scratch.
func referenceSweepCell(cfg Axes, conc, p int, eng *tcpsim.Engine, sc *runScratch) (SweepRow, error) {
	e := Experiment{
		Duration:      cfg.Duration,
		Concurrency:   conc,
		ParallelFlows: p,
		TransferSize:  cfg.TransferSizes[0],
		Strategy:      cfg.Strategy,
		Net:           cfg.Net,
	}
	e.Net.Seed = cfg.Net.Seed + int64(conc*100+p)
	return runExperimentRow(e, eng, sc)
}

// TestGridMatchesSweep holds the executor to the reference sweep: the
// Table 2 grid must produce bit-identical rows (same cells, same order,
// same per-cell seeds).
func TestGridMatchesSweep(t *testing.T) {
	cfg := fastSweep()
	sweep, err := referenceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := RunGridParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Rows) != len(sweep) {
		t.Fatalf("grid has %d rows, sweep %d", len(grid.Rows), len(sweep))
	}
	stripped := make([]SweepRow, len(grid.Rows))
	for i := range grid.Rows {
		if c := grid.Rows[i].Cell; c.RTT != cfg.Net.BaseRTT || c.Buffer != cfg.Net.Buffer ||
			c.CC != cfg.Net.CC || c.CrossFraction != cfg.Net.CrossFraction {
			t.Fatalf("row %d: %+v is not the base network point of a single-point grid", i, c)
		}
		stripped[i] = grid.Rows[i].SweepRow
	}
	want, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("grid rows not byte-identical to sweep rows")
	}
}

// TestGridDeterminism extends the bit-identity contract to multi-axis
// grids: serial, parallel at several widths, and cached execution all
// produce byte-identical rows.
func TestGridDeterminism(t *testing.T) {
	a := fastAxes()
	encode := func(rows []GridRow) string {
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	baseline, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(baseline.Rows)

	for _, workers := range []int{2, 4, 0} {
		g, err := RunGridParallel(a, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if encode(g.Rows) != want {
			t.Errorf("workers=%d: rows not byte-identical to serial RunGrid", workers)
		}
	}
	cached, err := NewGridCache().Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if encode(cached.Rows) != want {
		t.Error("cached grid rows not byte-identical to serial RunGrid")
	}

	// Mixed cached/fresh assembly: pre-seed the cell store with a
	// sub-grid, then assemble the full grid from loaded + freshly
	// executed cells — still byte-identical to the cold serial run.
	dir := t.TempDir()
	seeder := NewGridCache()
	seeder.SetDiskDir(dir)
	if _, err := seeder.Get(subAxes(), 0); err != nil {
		t.Fatal(err)
	}
	mixed := NewGridCache()
	mixed.SetDiskDir(dir)
	g, err := mixed.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if encode(g.Rows) != want {
		t.Error("mixed cached/fresh grid rows not byte-identical to serial RunGrid")
	}
}

// TestGridSeedsVaryAcrossNetPoints guards the per-cell seed derivation:
// cells at different network points must not reuse loss-randomization
// seeds, and cells at the base network point (every overridable field
// equal to the Net's own value) must keep the sweep's formula exactly.
func TestGridSeedsVaryAcrossNetPoints(t *testing.T) {
	a := fastAxes()
	seeds := make(map[int64]GridCell)
	for _, c := range a.Cells() {
		e := a.Experiment(c)
		if prev, dup := seeds[e.Net.Seed]; dup {
			t.Fatalf("cells %+v and %+v share seed %d", prev, c, e.Net.Seed)
		}
		seeds[e.Net.Seed] = c
		if e.Net.BaseRTT != c.RTT || e.Net.Buffer != c.Buffer || e.Net.CC != c.CC ||
			e.Net.CrossFraction != c.CrossFraction {
			t.Fatalf("experiment net %+v does not match cell %+v", e.Net, c)
		}
	}

	// The base network point reduces to the Table 2 sweep's seed formula
	// (offset 0) — what keeps the Table 2 grid bit-identical to the
	// reference sweep (referenceSweep).
	sweepAxes := fastSweep().normalized()
	for _, c := range sweepAxes.Cells() {
		e := sweepAxes.Experiment(c)
		want := sweepAxes.Net.Seed + int64(c.Concurrency*100+c.ParallelFlows)
		if e.Net.Seed != want {
			t.Fatalf("base-point seed = %d, want sweep formula %d", e.Net.Seed, want)
		}
	}
}

// TestGridSeedsAreGridIndependent is the invariant behind cell-granular
// reuse: a cell's seed is a pure function of its own coordinates and the
// base Net — never of its position within a particular Axes — so the
// same cell carries the same seed in a superset grid and a sub-grid.
// Transfer size deliberately never enters the seed (the sweep formula
// has no size term), so cells differing only in size share offsets.
func TestGridSeedsAreGridIndependent(t *testing.T) {
	super := fastAxes().normalized()
	sub := subAxes().normalized()
	superSeeds := make(map[string]int64)
	key := func(c GridCell) string {
		return fmt.Sprintf("%v/%v/%v/%g/%d/%d", c.RTT, c.Buffer, c.CC, c.CrossFraction, c.Concurrency, c.ParallelFlows)
	}
	for _, c := range super.Cells() {
		superSeeds[key(c)] = super.Experiment(c).Net.Seed
	}
	for _, c := range sub.Cells() {
		want, ok := superSeeds[key(c)]
		if !ok {
			t.Fatalf("sub-grid cell %+v absent from superset", c)
		}
		if got := sub.Experiment(c).Net.Seed; got != want {
			t.Errorf("cell %+v: sub-grid seed %d != superset seed %d", c, got, want)
		}
	}

	// Size-only variation shares the offset: same network deviation, same
	// Table 2 coordinates, different size ⇒ same seed.
	multi := fastAxes()
	multi.TransferSizes = []units.ByteSize{0.25 * units.GB, 0.5 * units.GB}
	multi = multi.normalized()
	bySize := make(map[string][]int64)
	for _, c := range multi.Cells() {
		k := key(c)
		bySize[k] = append(bySize[k], multi.Experiment(c).Net.Seed)
	}
	for k, seeds := range bySize {
		if len(seeds) != 2 || seeds[0] != seeds[1] {
			t.Errorf("cells at %s across sizes have seeds %v, want equal", k, seeds)
		}
	}
}

// TestGridCellsVary sanity-checks that the axes actually change the
// dynamics: worst-case FCT must differ across RTTs and buffers.
func TestGridCellsVary(t *testing.T) {
	a := fastAxes()
	g, err := RunGridParallel(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	type netPoint struct {
		rtt time.Duration
		buf units.ByteSize
	}
	worstByNet := make(map[netPoint]time.Duration)
	for _, row := range g.Rows {
		if row.Cell.Concurrency == 6 && row.Cell.ParallelFlows == 8 {
			worstByNet[netPoint{row.Cell.RTT, row.Cell.Buffer}] = row.Worst
		}
	}
	distinct := make(map[time.Duration]bool)
	for _, w := range worstByNet {
		distinct[w] = true
	}
	if len(distinct) < 2 {
		t.Errorf("worst FCT identical across all %d network points: %v", len(worstByNet), worstByNet)
	}
}

// axisWorsts runs a one-cell Table 2 plane (2 s, 8 flows, 0.5 GB, conc
// clients/s) over one swept network or size axis and returns each
// point's worst-case FCT in seconds, in axis order.
func axisWorsts(t *testing.T, conc int, sweep func(*Axes)) []float64 {
	t.Helper()
	a := DefaultSweep()
	a.Duration = 2 * time.Second
	a.Concurrencies = []int{conc}
	a.ParallelFlows = []int{8}
	sweep(&a)
	g, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	worsts := make([]float64, len(g.Rows))
	for i, row := range g.Rows {
		worsts[i] = row.Worst.Seconds()
	}
	return worsts
}

func TestSweepRTTMonotone(t *testing.T) {
	y := axisWorsts(t, 6, func(a *Axes) { // 96% offered: congestion-sensitive
		a.RTTs = []time.Duration{4 * time.Millisecond, 16 * time.Millisecond, 64 * time.Millisecond}
	})
	if len(y) != 3 {
		t.Fatalf("points = %d", len(y))
	}
	// Longer paths can only hurt the worst case (slow start and
	// recovery are RTT-bound). Allow 10% noise from loss randomization.
	if y[2] < y[0]*0.9 {
		t.Fatalf("worst at 64ms (%v) should not beat 4ms (%v)", y[2], y[0])
	}
}

func TestSweepSizeGrows(t *testing.T) {
	y := axisWorsts(t, 2, func(a *Axes) { // sub-saturation even at the largest size
		a.TransferSizes = []units.ByteSize{0.1 * units.GB, 0.5 * units.GB, 1 * units.GB}
	})
	for i := 1; i < len(y); i++ {
		if y[i] <= y[i-1] {
			t.Fatalf("worst FCT must grow with size: %v", y)
		}
	}
}

func TestSweepCrossGrows(t *testing.T) {
	y := axisWorsts(t, 3, func(a *Axes) { // 48% foreground leaves room for background
		a.CrossFractions = []float64{0, 0.3, 0.5}
	})
	if y[2] <= y[0] {
		t.Fatalf("50%% background (%v) should hurt vs idle (%v)", y[2], y[0])
	}
}
