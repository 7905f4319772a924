package core

import (
	"strings"
	"testing"
	"time"
)

func TestTierBudgets(t *testing.T) {
	if Tier1.Budget() != time.Second || Tier2.Budget() != 10*time.Second || Tier3.Budget() != time.Minute {
		t.Fatal("tier budgets wrong")
	}
	if Tier(99).Budget() != 0 {
		t.Error("unknown tier should have zero budget")
	}
}

func TestTierStrings(t *testing.T) {
	if !strings.Contains(Tier1.String(), "real-time") ||
		!strings.Contains(Tier2.String(), "near real-time") ||
		!strings.Contains(Tier3.String(), "quasi real-time") {
		t.Error("tier names wrong")
	}
	if Tier(0).String() == "" {
		t.Error("unknown tier should render")
	}
}

func TestMeetsTier(t *testing.T) {
	cases := []struct {
		tier Tier
		d    time.Duration
		want bool
	}{
		{Tier1, 900 * time.Millisecond, true},
		{Tier1, time.Second, false}, // strict <
		{Tier2, 9 * time.Second, true},
		{Tier2, 11 * time.Second, false},
		{Tier3, 59 * time.Second, true},
		{Tier3, 2 * time.Minute, false},
		{Tier(0), time.Millisecond, false},
	}
	for _, c := range cases {
		if got := MeetsTier(c.tier, c.d); got != c.want {
			t.Errorf("MeetsTier(%v, %v) = %v", c.tier, c.d, got)
		}
	}
}

func TestStrictestTier(t *testing.T) {
	cases := []struct {
		d      time.Duration
		want   Tier
		wantOK bool
	}{
		{100 * time.Millisecond, Tier1, true},
		{1340 * time.Millisecond, Tier2, true}, // the case-study T_pct
		{30 * time.Second, Tier3, true},
		{5 * time.Minute, 0, false},
	}
	for _, c := range cases {
		got, ok := StrictestTier(c.d)
		if got != c.want || ok != c.wantOK {
			t.Errorf("StrictestTier(%v) = %v, %v", c.d, got, ok)
		}
	}
}

func TestRegimeClassification(t *testing.T) {
	rc := DefaultRegimeClassifier()
	cases := []struct {
		worst time.Duration
		want  Regime
	}{
		{200 * time.Millisecond, RegimeLow},
		{time.Second, RegimeLow},
		{2 * time.Second, RegimeModerate},
		{2900 * time.Millisecond, RegimeModerate},
		{3 * time.Second, RegimeSevere},
		{9 * time.Second, RegimeSevere},
	}
	for _, c := range cases {
		if got := rc.Classify(c.worst); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.worst, got, c.want)
		}
	}
}

func TestRegimeStrings(t *testing.T) {
	if RegimeLow.String() != "low congestion" ||
		RegimeModerate.String() != "moderate congestion" ||
		RegimeSevere.String() != "severe congestion" {
		t.Error("regime names wrong")
	}
	if Regime(0).String() == "" {
		t.Error("unknown regime should render")
	}
}

func TestClassifyCurveRegimes(t *testing.T) {
	c := fig2aLikeCurve(t)
	rc := DefaultRegimeClassifier()
	regimes, err := rc.ClassifyCurve(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(regimes) != c.Len() {
		t.Fatalf("len = %d", len(regimes))
	}
	// The curve must traverse all three regimes in order — the paper's
	// three operational regimes.
	if regimes[0] != RegimeLow {
		t.Errorf("lowest load regime = %v", regimes[0])
	}
	sawModerate := false
	for _, r := range regimes {
		if r == RegimeModerate {
			sawModerate = true
		}
	}
	if !sawModerate {
		t.Error("no moderate regime on curve")
	}
	if regimes[len(regimes)-1] != RegimeSevere {
		t.Errorf("highest load regime = %v", regimes[len(regimes)-1])
	}
	// Regimes must be monotone along a monotone curve.
	for i := 1; i < len(regimes); i++ {
		if regimes[i] < regimes[i-1] {
			t.Errorf("regimes regress at %d: %v", i, regimes)
		}
	}
	if _, err := rc.ClassifyCurve(nil); err != ErrEmptyCurve {
		t.Errorf("nil curve err = %v", err)
	}
}
