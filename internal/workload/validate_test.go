package workload

// Axes.Validate is the one gate for a grid's cells: these tests hold it
// to the experiment's own rules, cell by cell, from outside the checks
// it makes.

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// cellsValid reports whether every cell of the grid passes its own
// experiment's validation: the rule set each cell meets when it runs.
func cellsValid(a Axes) bool {
	n := a.normalized()
	for _, c := range n.Cells() {
		if n.Experiment(c).Validate() != nil {
			return false
		}
	}
	return true
}

// pick returns 1–max values, each drawn from bad one time in twelve
// and from good otherwise, so that most grids run and every rule is
// still crossed often.
func pick[T any](r *rand.Rand, good, bad []T, max int) []T {
	out := make([]T, 1+r.Intn(max))
	for i := range out {
		if len(bad) > 0 && r.Intn(12) == 0 {
			out[i] = bad[r.Intn(len(bad))]
		} else {
			out[i] = good[r.Intn(len(good))]
		}
	}
	return out
}

// one is pick of a single value.
func one[T any](r *rand.Rand, good, bad []T) T { return pick(r, good, bad, 1)[0] }

// maybe returns nil half the time, else pick(r, good, bad, max).
func maybe[T any](r *rand.Rand, good, bad []T, max int) []T {
	if r.Intn(2) == 0 {
		return nil
	}
	return pick(r, good, bad, max)
}

// randomAxes draws a structurally valid grid, flat or multi-hop, whose
// per-cell values lie on both sides of every cell rule's boundary: zero,
// negative, NaN and infinite quantities, 999 and 1000 flows, both sides
// of the flow bound, durations under a second, RTT sums that wrap,
// cross fractions past 0.95 and an unknown CC. Multi-hop paths mix hops
// so that different edge capacities pick different bottlenecks.
func randomAxes(r *rand.Rand) Axes {
	nan, inf := math.NaN(), math.Inf(1)
	huge := time.Duration(math.MaxInt64) // wraps the summed RTT
	badCC := tcpsim.CongestionControl(2)
	a := Axes{
		Duration:      one(r, []time.Duration{500 * time.Millisecond, time.Second, 3 * time.Second, 4096 * time.Second}, []time.Duration{-time.Second, 0, 4097 * time.Second}),
		Concurrencies: pick(r, []int{1, 2, 8}, []int{-1, 0, 4096, 4097}, 3),
		ParallelFlows: pick(r, []int{1, 2, 8, 16, 999}, []int{-1, 0, 1000}, 3),
		TransferSizes: pick(r, []units.ByteSize{units.MB, 2 * units.GB}, []units.ByteSize{-units.GB, 0, units.ByteSize(nan)}, 2),
		CCs:           maybe(r, []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic}, []tcpsim.CongestionControl{badCC}, 2),
		Strategy:      SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
	a.Net.Capacity = one(r, []units.BitRate{25 * units.Gbps}, []units.BitRate{0, units.BitRate(nan), units.BitRate(inf)})
	a.Net.CC = one(r, []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic}, []tcpsim.CongestionControl{badCC})
	if r.Intn(2) == 0 {
		a.RTTs = maybe(r, []time.Duration{8 * time.Millisecond, 64 * time.Millisecond}, []time.Duration{-5 * time.Millisecond, 0}, 2)
		a.Buffers = maybe(r, []units.ByteSize{0, 2 * units.MB}, []units.ByteSize{-units.MB, units.ByteSize(nan), units.ByteSize(inf)}, 2)
		a.CrossFractions = maybe(r, []float64{0, 0.3, 0.95}, []float64{-0.1, 0.96, 0.99, nan}, 2)
		if r.Intn(4) == 0 {
			a.Path = tcpsim.Path{{Role: tcpsim.HopWAN, Capacity: 10e9, RTT: 12 * time.Millisecond,
				Buffer:        one(r, []units.ByteSize{0, units.MB}, []units.ByteSize{units.ByteSize(inf)}),
				CrossFraction: one(r, []float64{0, 0.5}, []float64{0.97})}}
		}
		return a
	}
	a.Path = tcpsim.Path{
		{Role: tcpsim.HopEdge, Capacity: 10e9,
			RTT:           one(r, []time.Duration{2 * time.Millisecond}, []time.Duration{huge}),
			Buffer:        one(r, []units.ByteSize{units.MB}, []units.ByteSize{units.ByteSize(nan)}),
			CrossFraction: one(r, []float64{0, 0.2}, []float64{0.97})},
		{Role: tcpsim.HopWAN, Capacity: 100e9, RTT: 30 * time.Millisecond, Buffer: 8 * units.MB,
			CrossFraction: one(r, []float64{0.3}, []float64{0.97})},
		{Role: tcpsim.HopIngress, Capacity: 40e9, RTT: time.Millisecond,
			Buffer: one(r, []units.ByteSize{4 * units.MB}, []units.ByteSize{units.ByteSize(inf)})},
	}
	if r.Intn(3) == 0 { // drop one hop
		i := r.Intn(3)
		a.Path = append(a.Path[:i:i], a.Path[i+1:]...)
	}
	if _, ok := a.Path.Hop(tcpsim.HopEdge); ok {
		// 1 and 10 Gbps leave the edge the bottleneck, 50 and 200 Gbps
		// hand it to the ingress or the WAN hop.
		a.EdgeCaps = maybe(r, []units.BitRate{units.Gbps, 10e9, 50e9, 200e9}, []units.BitRate{units.BitRate(inf)}, 3)
	}
	if _, ok := a.Path.Hop(tcpsim.HopWAN); ok {
		a.WANRTTs = maybe(r, []time.Duration{time.Millisecond, 60 * time.Millisecond}, []time.Duration{huge}, 2)
	}
	if _, ok := a.Path.Hop(tcpsim.HopIngress); ok {
		a.IngressBuffers = maybe(r, []units.ByteSize{0, 4 * units.MB}, []units.ByteSize{units.ByteSize(inf)}, 2)
	}
	return a
}

// TestValidateMatchesCellRules: over random structurally valid grids,
// Validate accepts a grid exactly when every one of its cells passes
// Experiment.Validate. Under-rejection would let a cell fail inside a
// run; over-rejection would refuse a grid every cell of which runs.
func TestValidateMatchesCellRules(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var accepted, rejected int
	for i := 0; i < 10000; i++ {
		a := randomAxes(r)
		err := a.Validate()
		if want := cellsValid(a); (err == nil) != want {
			t.Fatalf("grid %d: Validate() = %v, but every cell valid = %v\naxes %+v", i, err, want, a)
		}
		if err == nil {
			accepted++
		} else {
			rejected++
		}
	}
	t.Logf("accepted %d, rejected %d", accepted, rejected)
	// Both sides of the property must be exercised.
	if accepted < 100 || rejected < 100 {
		t.Fatalf("accepted %d and rejected %d grids, want >= 100 of each", accepted, rejected)
	}
}

// TestValidateAllocs: the cell checks on an accepted flat grid allocate
// nothing, normalized or not: a one-cell request passes Validate twice.
func TestValidateAllocs(t *testing.T) {
	cell := fastAxes()
	cell.Concurrencies, cell.ParallelFlows, cell.RTTs, cell.Buffers = cell.Concurrencies[:1], cell.ParallelFlows[:1], nil, nil
	for name, a := range map[string]Axes{
		"swept":      fastAxes(),
		"normalized": fastAxes().normalized(),
		"one cell":   cell,
	} {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { a.Validate() }); n != 0 {
			t.Errorf("%s: Validate allocates %.1f times, want 0", name, n)
		}
	}
}
