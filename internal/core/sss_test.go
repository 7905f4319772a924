package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestTheoreticalTransferPaperValue(t *testing.T) {
	// "theoretical transfer time for 0.5 GB at 25 Gbps is 0.16 seconds"
	got := TheoreticalTransfer(0.5*units.GB, 25*units.Gbps)
	if !almostEq(got, 160*time.Millisecond, time.Microsecond) {
		t.Fatalf("T_theoretical = %v, want 160ms", got)
	}
	if TheoreticalTransfer(units.GB, 0) != time.Duration(math.MaxInt64) {
		t.Error("zero bandwidth should saturate")
	}
}

func TestSSSPaperValues(t *testing.T) {
	// Observed max >5 s against 0.16 s theoretical => SSS > 31.
	s, err := SSS(5*time.Second, 0.5*units.GB, 25*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-31.25) > 0.01 {
		t.Errorf("SSS = %v, want 31.25", s)
	}
	// Scheduled transfers: 0.2 s measured => SSS 1.25.
	s, err = SSS(200*time.Millisecond, 0.5*units.GB, 25*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1.25) > 0.01 {
		t.Errorf("scheduled SSS = %v, want 1.25", s)
	}
}

func TestSSSErrors(t *testing.T) {
	if _, err := SSS(0, units.GB, units.Gbps); err == nil {
		t.Error("zero worst should fail")
	}
	if _, err := SSS(time.Second, 0, units.Gbps); err == nil {
		t.Error("zero size should fail")
	}
}

func TestWorstFromSSSInverse(t *testing.T) {
	w, err := WorstFromSSS(31.25, 0.5*units.GB, 25*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, 5*time.Second, time.Millisecond) {
		t.Errorf("WorstFromSSS = %v", w)
	}
	if _, err := WorstFromSSS(0, units.GB, units.Gbps); err == nil {
		t.Error("zero score should fail")
	}
}

// Property: SSS and WorstFromSSS are inverses.
func TestQuickSSSRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		worst := time.Duration(int(ms)+1) * time.Millisecond
		s, err := SSS(worst, 0.5*units.GB, 25*units.Gbps)
		if err != nil {
			return false
		}
		back, err := WorstFromSSS(s, 0.5*units.GB, 25*units.Gbps)
		if err != nil {
			return false
		}
		return almostEq(back, worst, time.Microsecond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fig2aLikeCurve(t *testing.T) *SSSCurve {
	t.Helper()
	// Shaped like the paper's Fig. 2a reading: sub-second below ~60%,
	// 1.2 s at 64%, a knee after 90%, 6 s at 96%, >5 s past saturation.
	pts := []CurvePoint{
		{Utilization: 0.16, Worst: 300 * time.Millisecond},
		{Utilization: 0.32, Worst: 500 * time.Millisecond},
		{Utilization: 0.48, Worst: 800 * time.Millisecond},
		{Utilization: 0.64, Worst: 1200 * time.Millisecond},
		{Utilization: 0.80, Worst: 2500 * time.Millisecond},
		{Utilization: 0.96, Worst: 6 * time.Second},
		{Utilization: 1.12, Worst: 9 * time.Second},
	}
	c, err := FitSSSCurve(0.5*units.GB, 25*units.Gbps, pts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSSSCurveInterpolation(t *testing.T) {
	c := fig2aLikeCurve(t)
	if c.Len() != 7 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Exact fitted point.
	w, err := c.WorstAt(0.64)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, 1200*time.Millisecond, time.Millisecond) {
		t.Errorf("WorstAt(0.64) = %v", w)
	}
	// Between points: linear.
	w, _ = c.WorstAt(0.72)
	if !almostEq(w, 1850*time.Millisecond, 5*time.Millisecond) {
		t.Errorf("WorstAt(0.72) = %v", w)
	}
	// Clamped extrapolation.
	w, _ = c.WorstAt(0.01)
	if !almostEq(w, 300*time.Millisecond, time.Millisecond) {
		t.Errorf("WorstAt(0.01) = %v", w)
	}
	w, _ = c.WorstAt(2)
	if !almostEq(w, 9*time.Second, time.Millisecond) {
		t.Errorf("WorstAt(2) = %v", w)
	}
}

func TestSSSCurveScoreAt(t *testing.T) {
	c := fig2aLikeCurve(t)
	// Score at 96%: 6 s / 0.16 s = 37.5.
	s, err := c.ScoreAt(0.96)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-37.5) > 0.1 {
		t.Errorf("ScoreAt(0.96) = %v", s)
	}
}

func TestSSSCurveUtilizationOf(t *testing.T) {
	c := fig2aLikeCurve(t)
	// 2 GB/s on 25 Gbps = 64%.
	if got := c.UtilizationOf(2 * units.GBps); math.Abs(got-0.64) > 1e-9 {
		t.Errorf("UtilizationOf = %v", got)
	}
	// 3 GB/s = 96%.
	if got := c.UtilizationOf(3 * units.GBps); math.Abs(got-0.96) > 1e-9 {
		t.Errorf("UtilizationOf = %v", got)
	}
}

func TestFitSSSCurveDuplicatesKeepWorst(t *testing.T) {
	pts := []CurvePoint{
		{Utilization: 0.5, Worst: time.Second},
		{Utilization: 0.5, Worst: 3 * time.Second},
		{Utilization: 0.5, Worst: 2 * time.Second},
	}
	c, err := FitSSSCurve(0.5*units.GB, 25*units.Gbps, pts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	w, _ := c.WorstAt(0.5)
	if !almostEq(w, 3*time.Second, time.Millisecond) {
		t.Errorf("duplicate should keep worst: %v", w)
	}
}

func TestFitSSSCurveEmpty(t *testing.T) {
	if _, err := FitSSSCurve(units.GB, units.Gbps, nil); err != ErrEmptyCurve {
		t.Errorf("err = %v", err)
	}
	var nilCurve *SSSCurve
	if _, err := nilCurve.WorstAt(0.5); err != ErrEmptyCurve {
		t.Errorf("nil curve err = %v", err)
	}
}

func TestSSSCurvePointsRoundTrip(t *testing.T) {
	c := fig2aLikeCurve(t)
	pts := c.Points()
	c2, err := FitSSSCurve(c.Size, c.Bandwidth, pts)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("round trip changed length")
	}
	for i, p := range c2.Points() {
		if p != pts[i] {
			t.Errorf("point %d changed: %v vs %v", i, p, pts[i])
		}
	}
}

// Property: WorstAt is monotone for a monotone curve.
func TestQuickCurveMonotone(t *testing.T) {
	c := fig2aLikeCurve(t)
	f := func(a, b uint8) bool {
		ua := float64(a) / 200
		ub := float64(b) / 200
		if ua > ub {
			ua, ub = ub, ua
		}
		wa, err1 := c.WorstAt(ua)
		wb, err2 := c.WorstAt(ub)
		return err1 == nil && err2 == nil && wa <= wb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
