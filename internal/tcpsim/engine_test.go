package tcpsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/units"
)

// goldenWorkload is one fixed engine workload checked against the
// reference round loop.
type goldenWorkload struct {
	name  string
	cfg   Config
	specs []FlowSpec
}

// goldenWorkloads covers every code path the round loop has: slow start,
// congestion avoidance (Reno and CUBIC), proportional loss with
// randomized severity, RTO stalls, idle gaps between arrivals, zero-size
// flows, unsorted and tied arrivals, and constant cross-traffic. It
// ends with the cell shape the decided
// benchmark seeds, whose long congestion-avoidance runs the random
// oracle's small flows barely sample.
func goldenWorkloads() []goldenWorkload {
	burst := func() []FlowSpec {
		var specs []FlowSpec
		id := 0
		for sec := 0; sec < 5; sec++ {
			for c := 0; c < 6; c++ {
				specs = append(specs, FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
				id++
			}
		}
		return specs
	}

	rng := rand.New(rand.NewSource(42))
	var random []FlowSpec
	for i := 0; i < 200; i++ {
		random = append(random, FlowSpec{
			ID:      i % 37, // deliberately non-unique IDs
			Arrival: rng.Float64() * 8,
			Size:    units.ByteSize(rng.Float64() * 100e6),
		})
	}

	cubicCfg := DefaultConfig()
	cubicCfg.CC = Cubic

	crossCfg := DefaultConfig()
	crossCfg.CrossFraction = 0.4

	shallowCfg := DefaultConfig()
	shallowCfg.Buffer = units.ByteSize(0.25 * shallowCfg.BDP())
	shallowCfg.Seed = 7

	cases := []goldenWorkload{
		{"saturating burst reno", DefaultConfig(), burst()},
		{"saturating burst cubic", cubicCfg, burst()},
		{"cross traffic 0.4", crossCfg, burst()},
		{"shallow buffer", shallowCfg, burst()},
		{"random arrivals dup ids", DefaultConfig(), random},
		{"idle gaps", DefaultConfig(), []FlowSpec{
			{ID: 1, Arrival: 0, Size: 10e6},
			{ID: 2, Arrival: 5, Size: 10e6},
			{ID: 3, Arrival: 5, Size: 0}, // zero-size at a tie
			{ID: 4, Arrival: 12, Size: 200e6},
		}},
		{"single solo flow", DefaultConfig(), []FlowSpec{{ID: 9, Arrival: 0, Size: 0.5 * units.GB}}},
	}

	// Three one-second arrival waves of four clients with eight flows
	// each (96 flows), IDs as the workload package assigns them
	// (client*1000 + flow), moving perClient bytes per client.
	cell := func(perClient units.ByteSize) []FlowSpec {
		var specs []FlowSpec
		for client := 0; client < 12; client++ {
			for f := 0; f < 8; f++ {
				specs = append(specs, FlowSpec{ID: client*1000 + f, Arrival: float64(client / 4), Size: perClient / 8})
			}
		}
		return specs
	}
	for _, perClient := range []units.ByteSize{units.GB, 2 * units.GB} {
		for _, cc := range []CongestionControl{Reno, Cubic} {
			for _, cross := range []float64{0, 0.1} {
				for _, buf := range []units.ByteSize{0, 4 * units.MB} {
					bufName := "auto"
					if buf > 0 {
						bufName = buf.String()
					}
					cfg := DefaultConfig()
					cfg.CC = cc
					cfg.CrossFraction = cross
					cfg.Buffer = buf
					cfg.Seed = int64(len(cases))
					cases = append(cases, goldenWorkload{
						name:  fmt.Sprintf("96-flow cell %v per client %v cross %v buffer %s", perClient, cc, cross, bufName),
						cfg:   cfg,
						specs: cell(perClient),
					})
				}
			}
		}
	}
	return cases
}

// TestEngineMatchesReference is the golden test: the SoA engine must be
// bit-identical (every float by its bits, every field) to the seed
// pointer-based implementation on every workload class.
func TestEngineMatchesReference(t *testing.T) {
	for _, tc := range goldenWorkloads() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := referenceRun(tc.cfg, tc.specs)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := Run(tc.cfg, tc.specs)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if err := sameBits(got, want); err != nil {
				t.Errorf("not bit-identical: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				if len(got.Flows) != len(want.Flows) {
					t.Fatalf("flows: got %d, want %d", len(got.Flows), len(want.Flows))
				}
				for i := range want.Flows {
					if got.Flows[i] != want.Flows[i] {
						t.Errorf("flow %d diverged:\ngot  %+v\nwant %+v", i, got.Flows[i], want.Flows[i])
					}
				}
				t.Fatalf("results diverged (dropped got %v want %v)", got.DroppedBytes, want.DroppedBytes)
			}
		})
	}
}

// TestEngineReuseIsClean runs one engine across all golden workloads in
// sequence (large then small and back) and checks each result still
// matches a fresh engine — i.e. no state leaks across Run calls.
func TestEngineReuseIsClean(t *testing.T) {
	e := NewEngine()
	cases := goldenWorkloads()
	// Two passes so a small workload follows a large one and vice versa.
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			want, err := referenceRun(tc.cfg, tc.specs)
			if err != nil {
				t.Fatalf("%s: reference: %v", tc.name, err)
			}
			got, err := e.Run(tc.cfg, tc.specs)
			if err != nil {
				t.Fatalf("%s: engine: %v", tc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, %s: reused engine diverged from reference", pass, tc.name)
			}
		}
	}
}

// TestEngineSoloClientFCT checks the engine path against the package
// function.
func TestEngineSoloClientFCT(t *testing.T) {
	cfg := DefaultConfig()
	want, err := SoloClientFCT(cfg, 0.5*units.GB, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	for i := 0; i < 3; i++ { // reuse must not drift
		got, err := e.SoloClientFCT(cfg, 0.5*units.GB, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: engine solo FCT %v, want %v", i, got, want)
		}
	}
}

// TestEngineSteadyStateAllocs is the perf contract of this package
// (PERFORMANCE.md): once warmed, a reused engine performs ZERO
// allocations for an entire Run — which implies zero per-round slice
// allocations in the congestion loop.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	var specs []FlowSpec
	id := 0
	for sec := 0; sec < 5; sec++ {
		for c := 0; c < 6; c++ {
			specs = append(specs, FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
			id++
		}
	}
	e := NewEngine()
	if _, err := e.Run(cfg, specs); err != nil { // warm the buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(cfg, specs); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Run allocates %.1f times per run, want 0", avg)
	}

	// CUBIC and cross-traffic paths must be allocation-free too.
	cfg.CC = Cubic
	cfg.CrossFraction = 0.3
	if _, err := e.Run(cfg, specs); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(20, func() {
		if _, err := e.Run(cfg, specs); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state cubic/cross Run allocates %.1f times per run, want 0", avg)
	}
}

// TestEngineResultAliasing documents the ownership contract: the result
// of an engine Run is overwritten by the next Run on the same engine,
// while package-level Run results are independent.
func TestEngineResultAliasing(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Run(cfg, []FlowSpec{{ID: 1, Arrival: 0, Size: 50e6}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, []FlowSpec{{ID: 2, Arrival: 0, Size: 100e6}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows[0].ID != 1 || b.Flows[0].ID != 2 {
		t.Fatal("package-level Run results must be independent")
	}

	e := NewEngine()
	ra, err := e.Run(cfg, []FlowSpec{{ID: 1, Arrival: 0, Size: 50e6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(cfg, []FlowSpec{{ID: 2, Arrival: 0, Size: 100e6}}); err != nil {
		t.Fatal(err)
	}
	if ra.Flows[0].ID == 1 {
		t.Fatal("engine result unexpectedly not reused (contract changed? update docs)")
	}
}

// TestRNGDeterminism pins what Engine.Run relies on: reseeding the
// engine's generator in place replays exactly the stream a fresh
// generator with that seed draws, and different seeds draw different
// streams.
func TestRNGDeterminism(t *testing.T) {
	e := NewEngine()
	e.rng.Float64() // advance, so the reseed must rewind
	e.rng.Seed(7)
	fresh := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if e.rng.Float64() != fresh.Float64() {
			t.Fatal("reseeded engine generator diverged from a fresh one")
		}
	}
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8))
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}
