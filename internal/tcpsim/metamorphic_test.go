package tcpsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/units"
)

// Metamorphic relations: checks of the engine that do not come from the
// engine itself. Any goodput model must degrade as the path gets worse
// (the netem exemplar states both relations): less residual capacity
// or a longer round trip must not make transfers finish sooner. One
// seed of the loss randomization is not monotone, so each relation
// compares the median worst completion time over metamorphicSeeds
// seeds, and allows the raised cell to be faster by at most
// metamorphicTol of the base median.
const (
	metamorphicCells = 60
	metamorphicSeeds = 9
	metamorphicTol   = 0.05
)

// metamorphicCell is a flat cell: a link and a flow set. concurrency
// clients arrive at the start of each of two seconds and split their
// transfer over flows parallel flows, as the workload package does.
type metamorphicCell struct {
	cfg         Config
	concurrency int
	flows       int
	perClient   units.ByteSize
}

// randomMetamorphicCell varies capacity, RTT, buffer, congestion
// control, cross traffic and flows. The transfer size is drawn as an
// offered load of 0.2–1.2 of the residual link, so cells range from
// idle to overloaded without a run growing unboundedly long.
func randomMetamorphicCell(rng *rand.Rand) metamorphicCell {
	cfg := DefaultConfig()
	cfg.Capacity = []units.BitRate{units.Gbps, 10 * units.Gbps, 25 * units.Gbps}[rng.Intn(3)]
	cfg.BaseRTT = time.Duration(2+rng.Intn(63)) * time.Millisecond
	if rng.Intn(2) == 1 {
		cfg.CC = Cubic
	}
	if rng.Intn(2) == 1 {
		cfg.Buffer = units.ByteSize(cfg.BDP() * (0.1 + 2*rng.Float64()))
	}
	cfg.CrossFraction = 0.5 * rng.Float64()
	c := metamorphicCell{
		cfg:         cfg,
		concurrency: 1 + rng.Intn(6),
		flows:       []int{1, 2, 4, 8}[rng.Intn(4)],
	}
	load := 0.2 + rng.Float64()
	residual := cfg.Capacity.ByteRate().BytesPerSecond() * (1 - cfg.CrossFraction)
	c.perClient = units.ByteSize(load * residual / float64(c.concurrency))
	return c
}

// medianWorst runs the cell once per seed and returns the median of the
// worst client completion time (arrival to last flow's end).
func medianWorst(t *testing.T, e *Engine, c metamorphicCell) float64 {
	t.Helper()
	var specs []FlowSpec
	for client := 0; client < 2*c.concurrency; client++ {
		for f := 0; f < c.flows; f++ {
			specs = append(specs, FlowSpec{
				ID:      client*1000 + f,
				Arrival: float64(client / c.concurrency),
				Size:    c.perClient / units.ByteSize(c.flows),
			})
		}
	}
	worst := make([]float64, metamorphicSeeds)
	for s := range worst {
		cfg := c.cfg
		cfg.Seed = int64(s + 1)
		res, err := e.Run(cfg, specs)
		if err != nil {
			t.Fatalf("cell %+v: %v", c, err)
		}
		ends := map[int]float64{}
		for _, fl := range res.Flows {
			ends[fl.ID/1000] = max(ends[fl.ID/1000], fl.Duration())
		}
		for _, d := range ends {
			worst[s] = max(worst[s], d)
		}
	}
	sort.Float64s(worst)
	return worst[len(worst)/2]
}

// TestMetamorphicWorseLinkIsNotFaster: on random flat cells, raising
// the cross-traffic fraction by 0.3, or doubling the base RTT, does not
// lower the median worst completion time beyond the tolerance.
func TestMetamorphicWorseLinkIsNotFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	e := NewEngine()
	for i := 0; i < metamorphicCells; i++ {
		base := randomMetamorphicCell(rng)
		want := medianWorst(t, e, base) * (1 - metamorphicTol)

		cross := base
		cross.cfg.CrossFraction += 0.3
		if got := medianWorst(t, e, cross); got < want {
			t.Errorf("cell %d %+v: cross %.2f -> %.2f lowered the median worst FCT to %.4fs (floor %.4fs)",
				i, base, base.cfg.CrossFraction, cross.cfg.CrossFraction, got, want)
		}

		slow := base
		slow.cfg.BaseRTT *= 2
		if got := medianWorst(t, e, slow); got < want {
			t.Errorf("cell %d %+v: RTT %v -> %v lowered the median worst FCT to %.4fs (floor %.4fs)",
				i, base, base.cfg.BaseRTT, slow.cfg.BaseRTT, got, want)
		}
	}
}
