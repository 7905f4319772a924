package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// fctSample builds a transfer-time population for 0.5 GB transfers:
// mostly fast (0.2 s) with a congested tail (2–6 s).
func fctSample() *stats.Sample {
	s := stats.NewSample()
	for i := 0; i < 90; i++ {
		s.Add(0.2 + float64(i%5)*0.01)
	}
	for _, x := range []float64{2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5} {
		s.Add(x)
	}
	return s
}

func TestDecideUnderVariabilityBasics(t *testing.T) {
	p := paperParams()
	rep, err := DecideUnderVariability(p, fctSample(), 0.5*units.GB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 100 {
		t.Fatalf("N = %d", rep.N)
	}
	// Fast observations: rate 2.5 GB/s (capped at 3.125), T_pct ~ 1.1 s
	// < 6.8 s local: remote wins. Worst (6.5 s FCT): rate 77 MB/s,
	// T_transfer 26 s: local wins. So PRemoteWins is the fast fraction.
	if rep.PRemoteWins < 0.85 || rep.PRemoteWins > 0.95 {
		t.Errorf("PRemoteWins = %v, want ~0.9", rep.PRemoteWins)
	}
	if rep.MedianChoice != ChooseRemote {
		t.Errorf("median choice = %v", rep.MedianChoice)
	}
	if rep.WorstChoice != ChooseLocal {
		t.Errorf("worst choice = %v", rep.WorstChoice)
	}
	if !rep.Disagreement() {
		t.Error("the designed sample must produce a median/worst disagreement")
	}
	// The T_pct distribution must be long-tailed like the input.
	if rep.TPct.Max < 5*rep.TPct.P50 {
		t.Errorf("tpct tail lost: %+v", rep.TPct)
	}
}

func TestDecideUnderVariabilityDeadline(t *testing.T) {
	p := paperParams()
	rep, err := DecideUnderVariability(p, fctSample(), 0.5*units.GB, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PMeetsDeadline >= 1 || rep.PMeetsDeadline < 0.85 {
		t.Errorf("PMeetsDeadline = %v", rep.PMeetsDeadline)
	}
	// No deadline: always 1.
	rep, err = DecideUnderVariability(p, fctSample(), 0.5*units.GB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PMeetsDeadline != 1 {
		t.Errorf("no-deadline PMeetsDeadline = %v", rep.PMeetsDeadline)
	}
}

func TestDecideUnderVariabilityErrors(t *testing.T) {
	p := paperParams()
	if _, err := DecideUnderVariability(p, nil, units.GB, 0); !errors.Is(err, ErrEmptySample) {
		t.Errorf("nil sample err = %v", err)
	}
	if _, err := DecideUnderVariability(p, stats.NewSample(), units.GB, 0); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty sample err = %v", err)
	}
	if _, err := DecideUnderVariability(p, fctSample(), 0, 0); err == nil {
		t.Error("zero measured size accepted")
	}
	var bad Params
	if _, err := DecideUnderVariability(bad, fctSample(), units.GB, 0); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("bad params err = %v", err)
	}
	allZero := stats.NewSample(0, 0, -1)
	if _, err := DecideUnderVariability(p, allZero, units.GB, 0); !errors.Is(err, ErrEmptySample) {
		t.Errorf("non-positive sample err = %v", err)
	}
}

func TestRateCappedAtLink(t *testing.T) {
	// An implausibly fast observation (FCT below the wire time) must be
	// capped at link rate, not produce alpha > 1.
	p := paperParams()
	s := stats.NewSample(0.01) // 0.5 GB in 10 ms = 50 GB/s >> 3.125 GB/s
	rep, err := DecideUnderVariability(p, s, 0.5*units.GB, 0)
	if err != nil {
		t.Fatal(err)
	}
	// T_pct floor: 2 GB at full link 3.125 GB/s + 0.34 s = 0.98 s.
	if rep.TPct.Min < 0.97 {
		t.Errorf("T_pct %v beat the physical floor", rep.TPct.Min)
	}
}

func TestChoiceAtDeadlineBranches(t *testing.T) {
	// remote wins and fits deadline.
	if c := choiceAt(1, 5, 10*time.Second); c != ChooseRemote {
		t.Errorf("case1 = %v", c)
	}
	// remote faster but misses deadline, local fits.
	if c := choiceAt(12, 5, 10*time.Second); c != ChooseLocal {
		t.Errorf("case2 = %v", c)
	}
	// only remote fits deadline.
	if c := choiceAt(8, 20, 10*time.Second); c != ChooseRemote {
		t.Errorf("case3 = %v", c)
	}
	// neither fits.
	if c := choiceAt(12, 20, 10*time.Second); c != ChooseInfeasible {
		t.Errorf("case4 = %v", c)
	}
	// no deadline.
	if c := choiceAt(1, 5, 0); c != ChooseRemote {
		t.Errorf("case5 = %v", c)
	}
	if c := choiceAt(7, 5, 0); c != ChooseLocal {
		t.Errorf("case6 = %v", c)
	}
}

func TestVariabilityDegenerateUniform(t *testing.T) {
	// A uniform sample yields identical worst and median choices.
	p := paperParams()
	s := stats.NewSample(0.2, 0.2, 0.2, 0.2)
	rep, err := DecideUnderVariability(p, s, 0.5*units.GB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disagreement() {
		t.Error("uniform sample cannot disagree")
	}
	if math.Abs(rep.TPct.Max-rep.TPct.Min) > 1e-12 {
		t.Errorf("uniform sample spread: %+v", rep.TPct)
	}
}
