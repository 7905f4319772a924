package workload

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/units"
)

// SweepConfig is the paper's Table 2: the full parameter sweep of the
// congestion experiments.
type SweepConfig struct {
	Duration      time.Duration
	Concurrencies []int // simultaneous clients per second
	ParallelFlows []int // TCP flows per client
	TransferSize  units.ByteSize
	Strategy      Strategy
	Net           tcpsim.Config
	// KeepClientResults retains the full per-client *Result on every
	// SweepRow. Default off: large sweeps (and anything held by the grid
	// cache) would otherwise pin every client transfer in memory. The
	// compact per-row TransferTimes — all AllTransferTimes needs — is
	// recorded regardless.
	KeepClientResults bool
}

// DefaultSweep mirrors Table 2: duration 10 s, concurrency 1–8, parallel
// flows {2,4,8}, 0.5 GB transfers, 25 Gbps link, 16 ms RTT — 24
// experiments.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Duration:      10 * time.Second,
		Concurrencies: []int{1, 2, 3, 4, 5, 6, 7, 8},
		ParallelFlows: []int{2, 4, 8},
		TransferSize:  0.5 * units.GB,
		Strategy:      SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
}

// Size returns the number of experiments in the sweep.
func (s SweepConfig) Size() int { return len(s.Concurrencies) * len(s.ParallelFlows) }

// SweepRow is one experiment outcome within a sweep.
type SweepRow struct {
	Concurrency   int
	ParallelFlows int
	OfferedLoad   float64 // offered bytes/s over capacity
	Utilization   float64 // measured mean utilization
	Worst         time.Duration
	P50           time.Duration
	P90           time.Duration
	P99           time.Duration
	SSS           float64
	// TransferTimes holds every client's transfer duration (seconds) in
	// client order — the population behind Fig. 3's CDF — at 8 bytes per
	// client regardless of KeepClientResults.
	TransferTimes []float64
	// Result is the full experiment output; nil unless
	// SweepConfig.KeepClientResults is set.
	Result *Result
}

// SweepResult is the completed Table 2 sweep.
type SweepResult struct {
	Config SweepConfig
	Rows   []SweepRow
}

// SeriesByFlows returns one (utilization, worst-case seconds) series per
// parallel-flow count — the series of Fig. 2.
func (s *SweepResult) SeriesByFlows() []stats.Series {
	byP := make(map[int]*stats.Series)
	var order []int
	for _, row := range s.Rows {
		ser, ok := byP[row.ParallelFlows]
		if !ok {
			ser = &stats.Series{Name: fmt.Sprintf("P=%d", row.ParallelFlows)}
			byP[row.ParallelFlows] = ser
			order = append(order, row.ParallelFlows)
		}
		ser.AddPoint(row.Utilization, row.Worst.Seconds())
	}
	out := make([]stats.Series, 0, len(order))
	for _, p := range order {
		ser := byP[p]
		ser.SortByX()
		out = append(out, *ser)
	}
	return out
}

// AllTransferTimes pools every client transfer time across the sweep —
// the population behind the paper's Fig. 3 CDF. It reads the compact
// per-row TransferTimes, so it works whether or not the sweep kept full
// client results.
func (s *SweepResult) AllTransferTimes() *stats.Sample {
	sample := stats.NewSample()
	for _, row := range s.Rows {
		for _, d := range row.TransferTimes {
			sample.Add(d)
		}
	}
	return sample
}

// FitCurve fits a core.SSSCurve from the sweep's (offered load, worst)
// observations, pooling all parallel-flow counts (ties keep the worst
// time). Offered load — not measured utilization — is the x-axis
// because it is what §5's arithmetic uses ("2 GB/s on 25 Gbps = 64%"),
// and because measured utilization saturates near 1 under overload,
// which would fold distinct congestion levels onto one x value.
func (s *SweepResult) FitCurve() (*core.SSSCurve, error) {
	pts := make([]core.CurvePoint, 0, len(s.Rows))
	for _, row := range s.Rows {
		pts = append(pts, core.CurvePoint{Utilization: row.OfferedLoad, Worst: row.Worst})
	}
	return core.FitSSSCurve(s.Config.TransferSize, s.Config.Net.Capacity, pts)
}
