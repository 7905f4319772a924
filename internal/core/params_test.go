package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// paperParams builds a parameter set shaped like the paper's case study:
// 2 GB units (one second of coherent-scattering output), 34 TFLOP of
// work per unit, on a 25 Gbps link.
func paperParams() Params {
	return Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: ComplexityFLOPPerGB(17e12), // 34 TFLOP over 2 GB
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             25 * units.Gbps,
		TransferRate:          2 * units.GBps,
		Theta:                 1,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := paperParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		want   error
	}{
		{"zero size", func(p *Params) { p.UnitSize = 0 }, ErrNonPositiveSize},
		{"negative complexity", func(p *Params) { p.ComplexityFLOPPerByte = -1 }, ErrNegativeComplexity},
		{"zero local", func(p *Params) { p.LocalRate = 0 }, ErrNonPositiveCompute},
		{"zero remote", func(p *Params) { p.RemoteRate = 0 }, ErrNonPositiveCompute},
		{"zero bandwidth", func(p *Params) { p.Bandwidth = 0 }, ErrNonPositiveBandwidth},
		{"zero transfer", func(p *Params) { p.TransferRate = 0 }, ErrNonPositiveTransfer},
		{"theta below 1", func(p *Params) { p.Theta = 0.5 }, ErrBadTheta},
		{"alpha above 1", func(p *Params) { p.TransferRate = 4 * units.GBps }, ErrTransferExceedsLink},
		{"T_local past time.Duration", func(p *Params) { p.ComplexityFLOPPerByte = 1e299 }, ErrTimeOutOfRange},
		{"T_pct past time.Duration", func(p *Params) { p.Theta = 1e300 }, ErrTimeOutOfRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := paperParams()
			c.mutate(&p)
			err := p.Validate()
			if !errors.Is(err, c.want) {
				t.Errorf("Validate() = %v, want %v", err, c.want)
			}
		})
	}
}

func TestCoefficients(t *testing.T) {
	p := paperParams()
	// alpha = 2 GB/s over 3.125 GB/s = 0.64 — the paper's 64% utilization.
	if got := p.Alpha(); math.Abs(got-0.64) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.64", got)
	}
	if got := p.R(); math.Abs(got-20) > 1e-12 {
		t.Errorf("R = %v, want 20", got)
	}
}

func TestWithSetters(t *testing.T) {
	p := paperParams()
	q := p.WithAlpha(0.5)
	if math.Abs(q.Alpha()-0.5) > 1e-12 {
		t.Errorf("WithAlpha: %v", q.Alpha())
	}
	if p.Alpha() != 0.64 {
		t.Error("WithAlpha mutated receiver")
	}
	q = p.WithR(3)
	if math.Abs(q.R()-3) > 1e-12 {
		t.Errorf("WithR: %v", q.R())
	}
	q = p.WithTheta(2.5)
	if q.Theta != 2.5 || p.Theta != 1 {
		t.Errorf("WithTheta: %v / %v", q.Theta, p.Theta)
	}
}

func TestComplexityFLOPPerGB(t *testing.T) {
	// 17 TFLOP/GB -> 17e3 FLOP per byte.
	if got := ComplexityFLOPPerGB(17e12); got != 17e3 {
		t.Errorf("got %v", got)
	}
}

func TestParamsString(t *testing.T) {
	s := paperParams().String()
	for _, want := range []string{"alpha=0.640", "r=20.000", "theta=1.000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// Property: Alpha is scale-invariant — scaling both transfer rate and
// bandwidth by the same factor leaves alpha unchanged.
func TestQuickAlphaScaleInvariant(t *testing.T) {
	f := func(k uint8) bool {
		scale := float64(k%100) + 1
		p := paperParams()
		q := p
		q.TransferRate = units.ByteRate(float64(p.TransferRate) * scale)
		q.Bandwidth = units.BitRate(float64(p.Bandwidth) * scale)
		return math.Abs(p.Alpha()-q.Alpha()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
