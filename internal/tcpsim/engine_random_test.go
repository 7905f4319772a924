package tcpsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/units"
)

// randomCase draws one engine workload from rng. The space covers what
// the fixed golden workloads sample only once each: Reno and CUBIC,
// buffers from one MSS to several BDPs (and the BDP/2 default), no,
// constant and square-wave cross traffic with and without phase jitter,
// 1–64 flows with zero-size flows, tied arrivals and idle gaps, and
// queue recording on and off.
func randomCase(rng *rand.Rand) (Config, []FlowSpec) {
	cfg := DefaultConfig()
	cfg.Seed = int64(rng.Intn(1 << 30))
	cfg.Capacity = []units.BitRate{units.Gbps, 10 * units.Gbps, 25 * units.Gbps, 100 * units.Gbps}[rng.Intn(4)]
	cfg.BaseRTT = time.Duration(1+rng.Intn(80)) * time.Millisecond
	if rng.Intn(2) == 1 {
		cfg.CC = Cubic
	}
	switch rng.Intn(4) {
	case 0:
		cfg.Buffer = cfg.MSS // one segment: drops nearly every round
	case 1:
		cfg.Buffer = 0 // the BDP/2 default
	default:
		cfg.Buffer = units.ByteSize(cfg.BDP() * (0.02 + 4*rng.Float64()))
	}
	switch rng.Intn(4) {
	case 0: // no cross traffic
	case 1:
		cfg.Cross = CrossTraffic{Fraction: 0.9 * rng.Float64()}
	default:
		cfg.Cross = CrossTraffic{
			Fraction:    0.9 * rng.Float64(),
			Period:      time.Duration(50+rng.Intn(950)) * time.Millisecond,
			Duty:        0.1 + 0.9*rng.Float64(),
			PhaseJitter: rng.Intn(2) == 1,
		}
	}
	cfg.RecordQueue = rng.Intn(2) == 1

	n := 1 + rng.Intn(64)
	specs := make([]FlowSpec, n)
	at := 0.0
	for i := range specs {
		switch rng.Intn(6) {
		case 0: // tie with the previous arrival
		case 1:
			at += 1 + 3*rng.Float64() // an idle gap long enough to drain
		default:
			at += 0.2 * rng.Float64()
		}
		size := units.ByteSize(rng.Float64() * 50e6)
		if rng.Intn(8) == 0 {
			size = 0
		}
		specs[i] = FlowSpec{ID: rng.Intn(n), Arrival: at, Size: size}
	}
	// Unsorted input: the engine must apply the same stable arrival
	// order as the reference.
	for i := len(specs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		specs[i], specs[j] = specs[j], specs[i]
	}
	return cfg, specs
}

// sameBits reports whether two results are identical bit for bit: every
// float field by its IEEE-754 bits (so -0 and +0 differ), the counters
// by deep equality.
func sameBits(got, want *Result) error {
	bits := func(name string, g, w float64) error {
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s: got %v (%#x), want %v (%#x)", name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		return nil
	}
	if len(got.Flows) != len(want.Flows) {
		return fmt.Errorf("flows: got %d, want %d", len(got.Flows), len(want.Flows))
	}
	for i, w := range want.Flows {
		g := got.Flows[i]
		if g.ID != w.ID || g.Retransmits != w.Retransmits {
			return fmt.Errorf("flow %d: got %+v, want %+v", i, g, w)
		}
		for _, err := range []error{
			bits(fmt.Sprintf("flow %d arrival", i), g.Arrival, w.Arrival),
			bits(fmt.Sprintf("flow %d end", i), g.End, w.End),
			bits(fmt.Sprintf("flow %d bytes", i), g.Bytes, w.Bytes),
		} {
			if err != nil {
				return err
			}
		}
	}
	if err := bits("dropped bytes", got.DroppedBytes, want.DroppedBytes); err != nil {
		return err
	}
	gq, wq := got.QueueDepth, want.QueueDepth
	if gq.Name != wq.Name || len(gq.X) != len(wq.X) || len(gq.Y) != len(wq.Y) {
		return fmt.Errorf("queue depth: got %d points, want %d", len(gq.X), len(wq.X))
	}
	for i := range wq.X {
		if err := bits(fmt.Sprintf("queue x[%d]", i), gq.X[i], wq.X[i]); err != nil {
			return err
		}
		if err := bits(fmt.Sprintf("queue y[%d]", i), gq.Y[i], wq.Y[i]); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		return fmt.Errorf("link counters differ")
	}
	return nil
}

// matchReference runs one workload on e and on the reference round
// loop: both must agree on every Result field bit for bit, or fail with
// the same error.
func matchReference(e *Engine, cfg Config, specs []FlowSpec) error {
	want, wantErr := referenceRun(cfg, specs)
	got, gotErr := e.Run(cfg, specs)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		return fmt.Errorf("engine err %v, reference err %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	return sameBits(got, want)
}

// TestEngineMatchesReferenceRandom is the differential oracle behind
// the fixed golden cases: 600 seeded random workloads, each run on one
// reused engine and on the reference round loop, must agree exactly on
// every Result field — or fail with the same error.
func TestEngineMatchesReferenceRandom(t *testing.T) {
	const cases = 600
	rng := rand.New(rand.NewSource(20261017))
	e := NewEngine()
	var cubic, jitter, recorded, zeroSize, oneMSS int
	for i := 0; i < cases; i++ {
		cfg, specs := randomCase(rng)
		if err := matchReference(e, cfg, specs); err != nil {
			t.Fatalf("case %d (%+v, %d flows): %v", i, cfg, len(specs), err)
		}
		if cfg.CC == Cubic {
			cubic++
		}
		if cfg.Cross.PhaseJitter {
			jitter++
		}
		if cfg.RecordQueue {
			recorded++
		}
		if cfg.Buffer == cfg.MSS {
			oneMSS++
		}
		for _, s := range specs {
			if s.Size == 0 {
				zeroSize++
				break
			}
		}
	}
	// The draw must actually reach every class it claims to cover.
	for name, n := range map[string]int{
		"cubic": cubic, "phase jitter": jitter, "record queue": recorded,
		"zero-size flow": zeroSize, "one-MSS buffer": oneMSS,
	} {
		if n < cases/20 {
			t.Errorf("only %d of %d cases exercise %s", n, cases, name)
		}
	}
}

// FuzzEngineMatchesReference extends the random oracle past its fixed
// draw: each input seeds randomCase, and the workload it draws must run
// bit-identically on one engine reused across inputs and on the
// reference round loop, or fail with the same error.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 42, 20261017, -7} {
		f.Add(seed)
	}
	e := NewEngine()
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg, specs := randomCase(rand.New(rand.NewSource(seed)))
		if err := matchReference(e, cfg, specs); err != nil {
			t.Fatalf("seed %d (%+v, %d flows): %v", seed, cfg, len(specs), err)
		}
	})
}

// TestBuiltinMinMaxMatchMath pins the premise of the engine's builtin
// min and max: on ±0, NaN, ±Inf, subnormals and ordinary values they
// return math.Min and math.Max's result bit for bit, with one exception
// the two specs define differently. math.Min(x, -Inf) is -Inf and
// math.Max(x, +Inf) is +Inf even when x is NaN, while the builtins
// return NaN whenever an operand is NaN. The exception cannot arise in
// a run: every engine operand is non-negative, so none is -Inf, and
// each max clamps against 2·MSS, which Config.Validate keeps finite.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{
		0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, // subnormal
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, 2.5e9, 8948, -3.25e-7,
	}
	same := func(got, want float64) bool {
		// Any NaN matches any NaN: the specs fix NaN-ness, not the
		// payload bits.
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	nanWith := func(x, y, inf float64) bool {
		return math.IsNaN(x) && y == inf || math.IsNaN(y) && x == inf
	}
	for _, x := range vals {
		for _, y := range vals {
			gotMin, wantMin := min(x, y), math.Min(x, y)
			if nanWith(x, y, math.Inf(-1)) {
				wantMin = math.NaN()
			}
			if !same(gotMin, wantMin) {
				t.Errorf("min(%v, %v) = %v (%#x), want %v (%#x)", x, y, gotMin, math.Float64bits(gotMin), wantMin, math.Float64bits(wantMin))
			}
			gotMax, wantMax := max(x, y), math.Max(x, y)
			if nanWith(x, y, math.Inf(1)) {
				wantMax = math.NaN()
			}
			if !same(gotMax, wantMax) {
				t.Errorf("max(%v, %v) = %v (%#x), want %v (%#x)", x, y, gotMax, math.Float64bits(gotMax), wantMax, math.Float64bits(wantMax))
			}
		}
	}
	// The exception itself, stated directly.
	if !math.IsNaN(min(math.NaN(), math.Inf(-1))) || math.Min(math.NaN(), math.Inf(-1)) != math.Inf(-1) {
		t.Error("min(NaN, -Inf): builtin and math.Min no longer differ as documented")
	}
	if !math.IsNaN(max(math.NaN(), math.Inf(1))) || math.Max(math.NaN(), math.Inf(1)) != math.Inf(1) {
		t.Error("max(NaN, +Inf): builtin and math.Max no longer differ as documented")
	}
}
