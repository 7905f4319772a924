package reduction

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestStageValidate(t *testing.T) {
	bad := []Stage{
		{Name: "amplifier", Factor: 0.5},
		{Name: "neg complexity", Factor: 2, ComplexityFLOPPerByte: -1},
		{Name: "neg latency", Factor: 2, Latency: -time.Second},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("stage %q accepted", s.Name)
		}
	}
	good := Stage{Name: "ok", Factor: 1, ComplexityFLOPPerByte: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("identity stage rejected: %v", err)
	}
}

func TestEmptyPipeline(t *testing.T) {
	var p Pipeline
	if err := p.Validate(); !errors.Is(err, ErrEmptyPipeline) {
		t.Errorf("err = %v", err)
	}
	if _, err := p.StageRates(units.GBps); err == nil {
		t.Error("empty pipeline produced output")
	}
}

func TestATLASReductionMatchesPaper(t *testing.T) {
	p := ATLASTrigger()
	f, err := p.TotalReduction()
	if err != nil {
		t.Fatal(err)
	}
	// 40 TB/s -> ~1 GB/s = 40,000x.
	if f != 40000 {
		t.Fatalf("total reduction = %v, want 40000", f)
	}
	rates, err := p.StageRates(40 * units.TBps)
	if err != nil {
		t.Fatal(err)
	}
	if out := rates[len(rates)-1]; math.Abs(out.BytesPerSecond()-1e9) > 1 {
		t.Fatalf("output = %v, want 1 GB/s", out)
	}
	lat, err := p.Latency()
	if err != nil {
		t.Fatal(err)
	}
	// Dominated by the HLT's software latency.
	if lat < 200*time.Millisecond || lat > 201*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
}

func TestComputeDemandPerStageRates(t *testing.T) {
	p := Pipeline{
		Name: "two-stage",
		Stages: []Stage{
			{Name: "a", Factor: 10, ComplexityFLOPPerByte: 1},
			{Name: "b", Factor: 2, ComplexityFLOPPerByte: 100},
		},
	}
	// Input 10 GB/s: stage a burns 1*10e9, stage b sees 1 GB/s and
	// burns 100*1e9 -> total 110 GFLOPS.
	d, err := p.ComputeDemand(10 * units.GBps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.PerSecond()-110e9) > 1 {
		t.Fatalf("demand = %v, want 110 GFLOPS", d)
	}
	rates, err := p.StageRates(10 * units.GBps)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10e9, 1e9, 0.5e9}
	if len(rates) != 3 {
		t.Fatalf("rates = %v", rates)
	}
	for i, w := range want {
		if math.Abs(rates[i].BytesPerSecond()-w) > 1 {
			t.Errorf("rate %d = %v, want %v", i, rates[i], w)
		}
	}
}

func TestNegativeInputRejected(t *testing.T) {
	p := ATLASTrigger()
	if _, err := p.ComputeDemand(-1); err == nil {
		t.Error("negative rate accepted")
	}
}

// Property: output rate is monotone in input and never exceeds input.
func TestQuickOutputMonotoneAndReducing(t *testing.T) {
	p := ATLASTrigger()
	f := func(a, b uint32) bool {
		ra := units.ByteRate(a)
		rb := units.ByteRate(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		sa, err1 := p.StageRates(ra)
		sb, err2 := p.StageRates(rb)
		if err1 != nil || err2 != nil {
			return false
		}
		oa, ob := sa[len(sa)-1], sb[len(sb)-1]
		return oa <= ob && oa <= ra && ob <= rb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: TotalReduction equals the rate ratio for unbounded pipelines.
func TestQuickReductionConsistency(t *testing.T) {
	p := ATLASTrigger()
	f := func(raw uint32) bool {
		in := units.ByteRate(raw) + 1
		rates, err := p.StageRates(in)
		if err != nil {
			return false
		}
		out := rates[len(rates)-1]
		total, err := p.TotalReduction()
		if err != nil {
			return false
		}
		got := in.BytesPerSecond() / out.BytesPerSecond()
		return math.Abs(got-total)/total < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
