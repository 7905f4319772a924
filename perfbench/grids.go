package main

import (
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// Every grid of the benchmark is written in the request vocabulary, so a
// grid set-up seeds in process and the same grid asked for over the
// socket are the same cells. A cell is three seconds of four clients
// with eight flows each: heavy enough that the engine, not the store's
// per-append cost on a disk filesystem, dominates seeding and the cold
// grids.
// A shape picks how many of each axis's values a grid sweeps.
type shape struct{ rtts, bufs, crosses int }

var (
	denseShape     = shape{8, 5, 8} // 1280 cells: the cold grids' pre-seeded cache, whose reopen rung streams (>= 1024 cells)
	coldShape      = shape{4, 2, 2} // 64 cells per cold op
	decideShape    = shape{8, 5, 2} // 320 cells, 64 of which decide_hot asks about
	portfolioShape = shape{8, 4, 2} // 256 cells; the portfolio rung asks for each of its 64 sub-grids
)

var (
	rttTokens   = []string{"8ms", "16ms", "24ms", "32ms", "40ms", "48ms", "56ms", "64ms"}
	bufTokens   = []string{"auto", "512KB", "1MB", "2MB", "4MB"}
	crossTokens = []string{"0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7"}
)

// sizeOffset is the seed's shift of every transfer size. Transfer size
// enters a cell's fingerprint but not its simulation seed, so a shift of
// a few kilobytes names new cells whose simulations, and costs, are those
// of the unshifted ones.
func sizeOffset(seed int64) units.ByteSize { return units.ByteSize(1 + seed%1024*4096) }

// tokens lists the shape's axis values: concs, pflows, sizes (shifted by
// off), rtts, buffers, ccs, crosses.
func (s shape) tokens(off units.ByteSize) [7][]string {
	return [7][]string{
		{"4"}, {"8"},
		{fmt.Sprintf("%.0fB", float64(units.GB+off)), fmt.Sprintf("%.0fB", float64(2*units.GB+off))},
		rttTokens[:s.rtts], bufTokens[:s.bufs], {"reno", "cubic"}, crossTokens[:s.crosses],
	}
}

func (s shape) size() int { return 4 * s.rtts * s.bufs * s.crosses }

// spec is the shape's grid, or with cell >= 0 its cell-th cell in
// mixed-radix order, as a request GridSpec.
func (s shape) spec(off units.ByteSize, cell int) *scenario.GridSpec {
	var tok [7]string
	for i, a := range s.tokens(off) {
		if cell < 0 {
			tok[i] = strings.Join(a, ",")
		} else {
			tok[i] = a[cell%len(a)]
			cell /= len(a)
		}
	}
	return &scenario.GridSpec{DurationS: 3, AxesSpec: scenario.AxesSpec{
		Concs: tok[0], Flows: tok[1], Sizes: tok[2], RTTs: tok[3], Buffers: tok[4], CCs: tok[5], Crosses: tok[6],
	}}
}

// axes lowers the shape's grid the way the service lowers a request.
func (s shape) axes(off units.ByteSize) (workload.Axes, error) { return s.spec(off, -1).Axes() }

// firstCell narrows a grid to its first cell.
func firstCell(a workload.Axes) workload.Axes {
	a.Concurrencies = a.Concurrencies[:1]
	a.ParallelFlows = a.ParallelFlows[:1]
	a.TransferSizes = a.TransferSizes[:1]
	a.RTTs = a.RTTs[:1]
	a.Buffers = a.Buffers[:1]
	a.CCs = a.CCs[:1]
	a.CrossFractions = a.CrossFractions[:1]
	return a
}
