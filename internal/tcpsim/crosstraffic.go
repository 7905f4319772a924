package tcpsim

import (
	"fmt"
	"math"
	"time"
)

// CrossTraffic models background load sharing the bottleneck — the
// "variability in network performance" the paper defers to future work.
// The background is an on/off square wave: during ON phases it consumes
// Fraction of the link; during OFF phases it consumes nothing. Duty
// controls the ON share of each period; Duty = 1 gives constant
// background load. Phase jitter (seeded from the simulation RNG) offsets
// the wave so batch arrivals don't accidentally synchronize with phase
// boundaries.
type CrossTraffic struct {
	// Fraction of link capacity consumed while ON (0..0.95).
	Fraction float64
	// Period of the on/off wave. Zero with Fraction > 0 means constant.
	Period time.Duration
	// Duty is the ON share of each period (0..1]; ignored when Period
	// is zero.
	Duty float64
	// PhaseJitter randomizes the wave's initial phase when true.
	PhaseJitter bool
}

// Validate checks the cross-traffic parameters.
func (ct CrossTraffic) Validate() error {
	if ct.Fraction < 0 || ct.Fraction > 0.95 || math.IsNaN(ct.Fraction) {
		return fmt.Errorf("tcpsim: cross-traffic fraction %v out of [0, 0.95]", ct.Fraction)
	}
	if ct.Period < 0 {
		return fmt.Errorf("tcpsim: negative cross-traffic period %v", ct.Period)
	}
	if ct.Period > 0 && (ct.Duty <= 0 || ct.Duty > 1 || math.IsNaN(ct.Duty)) {
		return fmt.Errorf("tcpsim: cross-traffic duty %v out of (0, 1]", ct.Duty)
	}
	return nil
}

// enabled reports whether any background load is configured.
func (ct CrossTraffic) enabled() bool { return ct.Fraction > 0 }

// consumedAt returns the fraction of capacity the background consumes at
// simulation time t (seconds), for the given phase offset.
func (ct CrossTraffic) consumedAt(t, phase float64) float64 {
	if !ct.enabled() {
		return 0
	}
	if ct.Period <= 0 {
		return ct.Fraction // constant background
	}
	period := ct.Period.Seconds()
	pos := math.Mod(t+phase, period)
	if pos < 0 {
		pos += period
	}
	if pos < ct.Duty*period {
		return ct.Fraction
	}
	return 0
}
