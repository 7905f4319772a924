package core

import (
	"fmt"
	"time"
)

// Tier is one of the paper's §5 latency tiers for total processing
// completion time.
type Tier int

// The paper's three tiers.
const (
	// Tier1 is real-time analysis: T_pct < 1 s.
	Tier1 Tier = iota + 1
	// Tier2 is near-real-time analysis: T_pct < 10 s.
	Tier2
	// Tier3 is quasi-real-time analysis: T_pct < 1 min.
	Tier3
)

// Budget returns the tier's completion-time budget.
func (t Tier) Budget() time.Duration {
	switch t {
	case Tier1:
		return time.Second
	case Tier2:
		return 10 * time.Second
	case Tier3:
		return time.Minute
	default:
		return 0
	}
}

// String names the tier as the paper does.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "Tier 1 (real-time, <1s)"
	case Tier2:
		return "Tier 2 (near real-time, <10s)"
	case Tier3:
		return "Tier 3 (quasi real-time, <1min)"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Tiers lists the paper's tiers in order of strictness.
func Tiers() []Tier { return []Tier{Tier1, Tier2, Tier3} }

// MeetsTier reports whether a completion time fits the tier's budget.
func MeetsTier(t Tier, completion time.Duration) bool {
	b := t.Budget()
	return b > 0 && completion < b
}

// StrictestTier returns the tightest tier the completion time satisfies
// and true, or zero and false when even Tier3 is missed.
func StrictestTier(completion time.Duration) (Tier, bool) {
	for _, t := range Tiers() {
		if MeetsTier(t, completion) {
			return t, true
		}
	}
	return 0, false
}

// Regime is one of the paper's §4.1 congestion regimes, delineated from
// worst-case transfer times: "(1) low congestion with performance
// suitable for real-time applications, (2) moderate congestion with 2-3
// second transfer times, and (3) severe congestion where transfer times
// become much higher and unsuitable for time-sensitive analysis."
type Regime int

// Congestion regimes.
const (
	RegimeLow Regime = iota + 1
	RegimeModerate
	RegimeSevere
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case RegimeLow:
		return "low congestion"
	case RegimeModerate:
		return "moderate congestion"
	case RegimeSevere:
		return "severe congestion"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// RegimeClassifier maps worst-case transfer times to regimes.
// The zero value is not usable; set both bounds or use
// DefaultRegimeClassifier.
type RegimeClassifier struct {
	// RealTimeBound is the largest worst-case transfer time still
	// considered "suitable for real-time applications".
	RealTimeBound time.Duration
	// SevereBound is the smallest worst-case transfer time classified as
	// severe congestion.
	SevereBound time.Duration
}

// DefaultRegimeClassifier follows the paper's reading of Fig. 2a: low
// congestion keeps worst-case transfers under 1 s, moderate congestion
// sits at 2–3 s, severe goes beyond.
func DefaultRegimeClassifier() RegimeClassifier {
	return RegimeClassifier{RealTimeBound: time.Second, SevereBound: 3 * time.Second}
}

// Classify maps a worst-case transfer time to its regime.
func (rc RegimeClassifier) Classify(worst time.Duration) Regime {
	switch {
	case worst <= rc.RealTimeBound:
		return RegimeLow
	case worst < rc.SevereBound:
		return RegimeModerate
	default:
		return RegimeSevere
	}
}

// ClassifyCurve labels every point of a fitted SSS curve, yielding the
// regime boundaries the paper reads off Fig. 2a.
func (rc RegimeClassifier) ClassifyCurve(c *SSSCurve) ([]Regime, error) {
	if c == nil || c.Len() == 0 {
		return nil, ErrEmptyCurve
	}
	pts := c.Points()
	out := make([]Regime, len(pts))
	for i, p := range pts {
		out[i] = rc.Classify(p.Worst)
	}
	return out, nil
}
