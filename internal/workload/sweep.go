package workload

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/units"
)

// DefaultSweep mirrors Table 2 as a grid: duration 10 s, concurrency
// 1–8, parallel flows {2,4,8}, 0.5 GB transfers, 25 Gbps link, 16 ms
// RTT — 24 experiments, the congestion sweep's plane of the grid.
func DefaultSweep() Axes {
	return Axes{
		Duration:      10 * time.Second,
		Concurrencies: []int{1, 2, 3, 4, 5, 6, 7, 8},
		ParallelFlows: []int{2, 4, 8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Strategy:      SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
}

// SweepRow is one experiment outcome: the measurements every grid row
// carries.
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
	// client.
	TransferTimes []float64
}

// SeriesByFlows returns one (utilization, worst-case seconds) series per
// parallel-flow count, pooling every network point — the series of
// Fig. 2.
func (g *GridResult) SeriesByFlows() []stats.Series {
	byP := make(map[int]*stats.Series)
	var order []int
	for _, row := range g.Rows {
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

// AllTransferTimes pools every client transfer time across the grid —
// the population behind the paper's Fig. 3 CDF.
func (g *GridResult) AllTransferTimes() *stats.Sample {
	sample := stats.NewSample()
	for _, row := range g.Rows {
		for _, d := range row.TransferTimes {
			sample.Add(d)
		}
	}
	return sample
}

// FitCurve fits a core.SSSCurve from a one-network-point grid's
// (offered load, worst) observations, pooling all parallel-flow counts
// (ties keep the worst time). Offered load — not measured utilization —
// is the x-axis because it is what §5's arithmetic uses ("2 GB/s on
// 25 Gbps = 64%"), and because measured utilization saturates near 1
// under overload, which would fold distinct congestion levels onto one
// x value.
func (g *GridResult) FitCurve() (*core.SSSCurve, error) {
	if n := g.Axes.NetPoints(); n != 1 {
		return nil, fmt.Errorf("workload: fitting a curve needs one network point, grid has %d", n)
	}
	pts := make([]core.CurvePoint, 0, len(g.Rows))
	for _, row := range g.Rows {
		pts = append(pts, core.CurvePoint{Utilization: row.OfferedLoad, Worst: row.Worst})
	}
	return core.FitSSSCurve(g.Axes.TransferSizes[0], g.Axes.Net.Capacity, pts)
}
