package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestBreakEvenTheta(t *testing.T) {
	p := paperParams()
	// T_local 6.8 s, T_remote 0.34 s, T_transfer 1 s -> theta* = 6.46.
	theta, err := p.BreakEvenTheta()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-6.46) > 1e-6 {
		t.Fatalf("theta* = %v, want 6.46", theta)
	}
	// At theta slightly below the break-even remote must win; above, lose.
	if p.WithTheta(theta*0.99).TPct() >= p.TLocal() {
		t.Error("below theta* remote should win")
	}
	if p.WithTheta(theta*1.01).TPct() <= p.TLocal() {
		t.Error("above theta* remote should lose")
	}
}

func TestBreakEvenThetaNoPoint(t *testing.T) {
	// Remote barely faster and transfer very slow: even theta=1 loses.
	p := paperParams().WithR(1.05).WithAlpha(0.05)
	_, err := p.BreakEvenTheta()
	if !errors.Is(err, ErrNoBreakEven) {
		t.Fatalf("err = %v", err)
	}
}

func TestBreakEvenAlpha(t *testing.T) {
	p := paperParams().WithTheta(2)
	alpha, err := p.BreakEvenAlpha()
	if err != nil {
		t.Fatal(err)
	}
	// Verify by construction: at alpha* the two paths tie.
	tied := p.WithAlpha(alpha)
	diff := math.Abs(tied.TPct().Seconds() - tied.TLocal().Seconds())
	if diff > 1e-6 {
		t.Fatalf("at alpha*=%v: TPct=%v TLocal=%v", alpha, tied.TPct(), tied.TLocal())
	}
	// Faster transfer than alpha* -> remote wins.
	if p.WithAlpha(alpha*1.5).TPct() >= p.TLocal() {
		t.Error("above alpha* remote should win")
	}
}

func TestBreakEvenAlphaErrors(t *testing.T) {
	// Remote slower than local: no alpha helps.
	p := paperParams().WithR(0.5)
	if _, err := p.BreakEvenAlpha(); !errors.Is(err, ErrNoBreakEven) {
		t.Errorf("err = %v", err)
	}
	// Huge theta: required alpha above 1.
	q := paperParams().WithTheta(40)
	if _, err := q.BreakEvenAlpha(); !errors.Is(err, ErrNoBreakEven) {
		t.Errorf("err = %v", err)
	}
}

func TestBreakEvenR(t *testing.T) {
	p := paperParams()
	r, err := p.BreakEvenR()
	if err != nil {
		t.Fatal(err)
	}
	tied := p.WithR(r)
	diff := math.Abs(tied.TPct().Seconds() - tied.TLocal().Seconds())
	if diff > 1e-6 {
		t.Fatalf("at r*=%v: TPct=%v TLocal=%v", r, tied.TPct(), tied.TLocal())
	}
	// More remote compute -> remote wins.
	if p.WithR(r*2).TPct() >= p.TLocal() {
		t.Error("above r* remote should win")
	}
	// Transfer alone exceeding local time: no r* exists.
	q := paperParams().WithAlpha(0.04) // T_transfer = 2GB/0.125GBps = 16 s > 6.8 s
	if _, err := q.BreakEvenR(); !errors.Is(err, ErrNoBreakEven) {
		t.Errorf("err = %v", err)
	}
}

func TestBreakEvenRZeroComplexity(t *testing.T) {
	// Zero complexity means T_local = 0: local is instantaneous and no
	// remote compute ratio can beat it, so no break-even exists.
	p := paperParams()
	p.ComplexityFLOPPerByte = 0
	if _, err := p.BreakEvenR(); !errors.Is(err, ErrNoBreakEven) {
		t.Fatalf("zero-complexity err = %v", err)
	}
}

func TestBreakEvenBandwidth(t *testing.T) {
	p := paperParams().WithTheta(2)
	bw, err := p.BreakEvenBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	// Verify: with that bandwidth (keeping alpha fixed), the paths tie.
	tied := p
	tied.Bandwidth = bw
	tied.TransferRate = units.ByteRate(p.Alpha() * float64(bw.ByteRate()))
	diff := math.Abs(tied.TPct().Seconds() - tied.TLocal().Seconds())
	if diff > 1e-6 {
		t.Fatalf("at Bw*=%v: TPct=%v TLocal=%v", bw, tied.TPct(), tied.TLocal())
	}
	if _, err := paperParams().WithR(0.1).BreakEvenBandwidth(); !errors.Is(err, ErrNoBreakEven) {
		t.Error("no-headroom case should fail")
	}
}

func TestSweeps(t *testing.T) {
	p := paperParams()
	s, err := p.SweepTheta(1, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 || s.X[0] != 1 || s.X[9] != 10 {
		t.Fatalf("sweep range wrong: %v", s.X)
	}
	// T_pct grows with theta.
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Fatalf("theta sweep not monotone at %d", i)
		}
	}
	s, err = p.SweepAlpha(0.1, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] > s.Y[i-1] {
			t.Fatalf("alpha sweep should decrease T_pct at %d", i)
		}
	}
	s, err = p.SweepR(1, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] > s.Y[i-1] {
			t.Fatalf("r sweep should decrease T_pct at %d", i)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	p := paperParams()
	if _, err := p.SweepTheta(1, 10, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := p.SweepTheta(10, 1, 5); err == nil {
		t.Error("empty range accepted")
	}
}

// Property: whenever BreakEvenTheta succeeds, gain at that theta is ~1.
func TestQuickBreakEvenThetaTies(t *testing.T) {
	base := paperParams()
	f := func(a, r uint8) bool {
		p := base.
			WithAlpha(0.2 + float64(a%80)/100).
			WithR(2 + float64(r%50))
		theta, err := p.BreakEvenTheta()
		if err != nil {
			return true // no break-even is legitimate for some corners
		}
		g := p.WithTheta(theta).Gain()
		return math.Abs(g-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
