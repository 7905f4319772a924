package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func almostEq(a, b time.Duration, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestModelTimesPaperArithmetic(t *testing.T) {
	p := paperParams()
	// T_transfer = 2 GB at 2 GB/s = 1 s.
	if got := p.TTransfer(); !almostEq(got, time.Second, time.Microsecond) {
		t.Errorf("TTransfer = %v", got)
	}
	// T_remote = 34 TFLOP / 100 TFLOPS = 0.34 s.
	if got := p.TRemote(); !almostEq(got, 340*time.Millisecond, time.Microsecond) {
		t.Errorf("TRemote = %v", got)
	}
	// T_local = 34 TFLOP / 5 TFLOPS = 6.8 s.
	if got := p.TLocal(); !almostEq(got, 6800*time.Millisecond, time.Microsecond) {
		t.Errorf("TLocal = %v", got)
	}
	// theta=1 -> T_IO = 0, T_pct = 1.34 s.
	if got := p.TIO(); got != 0 {
		t.Errorf("TIO = %v", got)
	}
	if got := p.TPct(); !almostEq(got, 1340*time.Millisecond, time.Microsecond) {
		t.Errorf("TPct = %v", got)
	}
}

func TestThetaScalesIO(t *testing.T) {
	p := paperParams().WithTheta(3)
	// T_IO = (3-1) * 1 s = 2 s; T_pct = 3*1 + 0.34 = 3.34 s.
	if got := p.TIO(); !almostEq(got, 2*time.Second, time.Microsecond) {
		t.Errorf("TIO = %v", got)
	}
	if got := p.TPct(); !almostEq(got, 3340*time.Millisecond, time.Microsecond) {
		t.Errorf("TPct = %v", got)
	}
	// Eq. 7 identity: theta = (T_IO + T_transfer) / T_transfer.
	theta := (p.TIO().Seconds() + p.TTransfer().Seconds()) / p.TTransfer().Seconds()
	if math.Abs(theta-3) > 1e-9 {
		t.Errorf("theta identity = %v", theta)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	p := paperParams().WithTheta(2)
	b := p.Breakdown()
	sum := b.TTransfer + b.TIO + b.TRemote
	if !almostEq(sum, b.TPct, time.Microsecond) {
		t.Errorf("transfer+io+remote = %v, TPct = %v", sum, b.TPct)
	}
	if b.String() == "" {
		t.Error("empty breakdown string")
	}
}

func TestDegenerateRatesSaturate(t *testing.T) {
	var p Params
	p.UnitSize = units.GB
	if p.TLocal() != time.Duration(math.MaxInt64) {
		t.Error("TLocal should saturate with zero local rate")
	}
	if p.TTransfer() != time.Duration(math.MaxInt64) {
		t.Error("TTransfer should saturate with zero transfer rate")
	}
	if p.TRemote() != time.Duration(math.MaxInt64) {
		t.Error("TRemote should saturate with zero remote rate")
	}
}

func TestGainMatchesClosedForm(t *testing.T) {
	cases := []Params{
		paperParams(),
		paperParams().WithTheta(2.5),
		paperParams().WithAlpha(0.3).WithTheta(1.8),
		paperParams().WithR(2),
	}
	for _, p := range cases {
		g1, g2 := p.Gain(), p.GainClosedForm()
		if math.Abs(g1-g2)/g1 > 1e-6 {
			t.Errorf("Gain %v != closed form %v for %v", g1, g2, p)
		}
	}
}

func TestGainInterpretation(t *testing.T) {
	p := paperParams()
	// T_local 6.8 s vs T_pct 1.34 s -> gain ~5.07: remote wins.
	g := p.Gain()
	if g < 5 || g > 5.2 {
		t.Errorf("gain = %v, want ~5.07", g)
	}
	// Make local compute fast: r = 0.5 means remote is half as fast.
	slow := p.WithR(0.5).WithAlpha(0.1)
	if slow.Gain() >= 1 {
		t.Errorf("slow remote should lose, gain = %v", slow.Gain())
	}
}

// Property: gain is monotonically non-decreasing in alpha and r, and
// non-increasing in theta.
func TestQuickGainMonotonicity(t *testing.T) {
	base := paperParams()
	f := func(a1, a2, r1, r2, th1, th2 uint8) bool {
		alpha1 := 0.01 + float64(a1%100)/101
		alpha2 := 0.01 + float64(a2%100)/101
		if alpha1 > alpha2 {
			alpha1, alpha2 = alpha2, alpha1
		}
		if base.WithAlpha(alpha1).Gain() > base.WithAlpha(alpha2).Gain()+1e-9 {
			return false
		}
		rr1 := 0.1 + float64(r1)
		rr2 := 0.1 + float64(r2)
		if rr1 > rr2 {
			rr1, rr2 = rr2, rr1
		}
		if base.WithR(rr1).Gain() > base.WithR(rr2).Gain()+1e-9 {
			return false
		}
		t1 := 1 + float64(th1%50)/10
		t2 := 1 + float64(th2%50)/10
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return base.WithTheta(t1).Gain() >= base.WithTheta(t2).Gain()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecideRemoteWins(t *testing.T) {
	d, err := Decide(paperParams(), DecideOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Choice != ChooseRemote {
		t.Fatalf("choice = %v (%s)", d.Choice, d.Reason)
	}
	if !d.SustainedOK {
		t.Errorf("flags: %+v", d)
	}
}

func TestDecideLocalWins(t *testing.T) {
	p := paperParams().WithR(1.01).WithAlpha(0.05) // slow link, barely faster remote
	d, err := Decide(p, DecideOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Choice != ChooseLocal {
		t.Fatalf("choice = %v (%s)", d.Choice, d.Reason)
	}
}

func TestDecideSustainedInfeasible(t *testing.T) {
	// Liquid Scattering: 4 GB/s demanded, only 2 GB/s effective.
	p := paperParams()
	d, err := Decide(p, DecideOpts{GenerationRate: 4 * units.GBps})
	if err != nil {
		t.Fatal(err)
	}
	if d.SustainedOK {
		t.Error("4 GB/s should exceed 2 GB/s effective rate")
	}
	if d.Choice != ChooseLocal {
		t.Errorf("should fall back to local: %v (%s)", d.Choice, d.Reason)
	}

	// And if local also misses the deadline, infeasible.
	d, err = Decide(p, DecideOpts{GenerationRate: 4 * units.GBps, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d.Choice != ChooseInfeasible {
		t.Errorf("want infeasible: %+v", d)
	}
}

func TestDecideDeadline(t *testing.T) {
	p := paperParams() // T_pct 1.34 s, T_local 6.8 s
	// Tier 1 (1 s): remote wins nominally but misses 1 s; local misses too.
	d, err := Decide(p, DecideOpts{Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d.Choice != ChooseInfeasible {
		t.Errorf("tier1 should be infeasible: %+v", d.Choice)
	}
	// Tier 2 (10 s): remote feasible.
	d, err = Decide(p, DecideOpts{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d.Choice != ChooseRemote || d.Breakdown.TPct > 10*time.Second {
		t.Errorf("tier2 should pick remote: %+v", d)
	}
	// Remote faster but misses deadline while local meets it.
	q := paperParams()
	q.LocalRate = 30 * units.TeraFLOPS // T_local = 34/30 = 1.13 s
	// T_pct still 1.34 s -> local wins under a 1.2 s deadline.
	d, err = Decide(q, DecideOpts{Deadline: 1200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d.Choice != ChooseLocal {
		t.Errorf("deadline should flip to local: %+v (%s)", d.Choice, d.Reason)
	}
}

func TestDecideInvalidParams(t *testing.T) {
	var p Params
	if _, err := Decide(p, DecideOpts{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestChoiceString(t *testing.T) {
	if ChooseLocal.String() != "local" || ChooseRemote.String() != "remote" ||
		ChooseInfeasible.String() != "infeasible" {
		t.Error("choice names wrong")
	}
	if Choice(42).String() == "" {
		t.Error("unknown choice should still render")
	}
}

// Property: Decide never returns ChooseRemote when T_pct >= T_local, and
// never ChooseLocal when remote is strictly faster with no constraints.
func TestQuickDecideConsistent(t *testing.T) {
	base := paperParams()
	f := func(a, r, th uint8) bool {
		p := base.
			WithAlpha(0.05 + float64(a%90)/100).
			WithR(0.5 + float64(r%40)).
			WithTheta(1 + float64(th%30)/10)
		d, err := Decide(p, DecideOpts{})
		if err != nil {
			return false
		}
		remoteFaster := d.Breakdown.TPct < d.Breakdown.TLocal
		if remoteFaster && d.Choice != ChooseRemote {
			return false
		}
		if !remoteFaster && d.Choice != ChooseLocal {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
