package workload

import (
	"testing"
	"time"

	"repro/internal/units"
)

// fastSweep shrinks Table 2 for unit tests: 2 s duration, fewer cells.
func fastSweep() Axes {
	cfg := DefaultSweep()
	cfg.Duration = 2 * time.Second
	cfg.Concurrencies = []int{1, 4, 8}
	cfg.ParallelFlows = []int{2, 8}
	return cfg
}

func TestDefaultSweepMatchesTable2(t *testing.T) {
	cfg := DefaultSweep()
	if cfg.Size() != 24 {
		t.Fatalf("sweep size = %d, want 24 (Table 2)", cfg.Size())
	}
	if cfg.Duration != 10*time.Second {
		t.Errorf("duration = %v", cfg.Duration)
	}
	if len(cfg.TransferSizes) != 1 || cfg.TransferSizes[0] != 0.5*units.GB {
		t.Errorf("sizes = %v", cfg.TransferSizes)
	}
	if cfg.Net.Capacity != 25*units.Gbps {
		t.Errorf("capacity = %v", cfg.Net.Capacity)
	}
	if cfg.Net.BaseRTT != 16*time.Millisecond {
		t.Errorf("RTT = %v", cfg.Net.BaseRTT)
	}
}

func TestRunSweep(t *testing.T) {
	cfg := fastSweep()
	res, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cfg.Size() {
		t.Fatalf("rows = %d, want %d", len(res.Rows), cfg.Size())
	}
	for _, row := range res.Rows {
		if row.Worst <= 0 || row.SSS < 1 {
			t.Errorf("row conc=%d P=%d: worst=%v sss=%v",
				row.Concurrency, row.ParallelFlows, row.Worst, row.SSS)
		}
		if row.P50 > row.P90 || row.P90 > row.P99 || row.P99 > row.Worst {
			t.Errorf("quantiles out of order: %+v", row)
		}
	}
}

func TestRunSweepEmptyAxes(t *testing.T) {
	cfg := fastSweep()
	cfg.Concurrencies = nil
	if _, err := RunGridCached(cfg, 0); err == nil {
		t.Fatal("empty axes accepted")
	}
}

func TestSeriesByFlows(t *testing.T) {
	res, err := RunGridCached(fastSweep(), 0)
	if err != nil {
		t.Fatal(err)
	}
	series := res.SeriesByFlows()
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, s := range series {
		if s.Len() != 3 {
			t.Errorf("series %s has %d points", s.Name, s.Len())
		}
		// Sorted by utilization.
		for i := 1; i < s.Len(); i++ {
			if s.X[i] < s.X[i-1] {
				t.Errorf("series %s unsorted", s.Name)
			}
		}
	}
	if series[0].Name != "P=2" || series[1].Name != "P=8" {
		t.Errorf("series names: %s, %s", series[0].Name, series[1].Name)
	}
}

func TestAllTransferTimes(t *testing.T) {
	cfg := fastSweep()
	res, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sample := res.AllTransferTimes()
	wantClients := 0
	for _, c := range cfg.Concurrencies {
		wantClients += c * 2 // seconds
	}
	wantClients *= len(cfg.ParallelFlows)
	if sample.Len() != wantClients {
		t.Fatalf("pooled samples = %d, want %d", sample.Len(), wantClients)
	}
}

func TestFitCurveFromSweep(t *testing.T) {
	res, err := RunGridCached(fastSweep(), 0)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := res.FitCurve()
	if err != nil {
		t.Fatal(err)
	}
	if curve.Len() == 0 {
		t.Fatal("empty fitted curve")
	}
	// Worst-case at high utilization must exceed worst-case at low.
	lo, err := curve.WorstAt(0.1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := curve.WorstAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= lo {
		t.Fatalf("curve not increasing: %v at 10%% vs %v at 100%%", lo, hi)
	}
	// One curve per network point: pooling two RTTs' rows would mix
	// two congestion curves.
	two := fastSweep()
	two.RTTs = []time.Duration{8 * time.Millisecond, 32 * time.Millisecond}
	g, err := RunGridCached(two, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.FitCurve(); err == nil {
		t.Fatal("FitCurve pooled a two-point grid")
	}
}

func TestSweepNonLinearKnee(t *testing.T) {
	// The reproduction's core qualitative claim for Fig. 2a: the jump in
	// worst-case FCT from moderate to high load far exceeds the jump
	// from low to moderate.
	cfg := fastSweep()
	cfg.Concurrencies = []int{1, 5, 8} // 16%, 80%, 128% offered
	cfg.ParallelFlows = []int{8}
	res, err := RunGridCached(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := func(i int) float64 { return res.Rows[i].Worst.Seconds() }
	lowJump := w(1) - w(0)
	highJump := w(2) - w(1)
	if highJump <= lowJump {
		t.Fatalf("no knee: low->mid %+v, mid->high %+v (worsts: %v %v %v)",
			lowJump, highJump, w(0), w(1), w(2))
	}
}
