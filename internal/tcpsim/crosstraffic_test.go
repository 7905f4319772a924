package tcpsim

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestCrossTrafficValidate(t *testing.T) {
	for _, f := range []float64{0, 0.5, 0.95} {
		cfg := DefaultConfig()
		cfg.CrossFraction = f
		if err := cfg.Validate(); err != nil {
			t.Errorf("fraction %v rejected: %v", f, err)
		}
	}
	for _, f := range []float64{-0.1, 0.96, math.NaN(), math.Inf(1)} {
		cfg := DefaultConfig()
		cfg.CrossFraction = f
		if err := cfg.Validate(); err == nil {
			t.Errorf("fraction %v accepted", f)
		}
	}
}

func TestCrossTrafficSlowsTransfers(t *testing.T) {
	// A solo 0.5 GB flow with 50% constant background must take roughly
	// twice as long as on an idle link.
	idle := DefaultConfig()
	idleFCT, err := SoloClientFCT(idle, 0.5*units.GB, 4)
	if err != nil {
		t.Fatal(err)
	}
	busy := DefaultConfig()
	busy.CrossFraction = 0.5
	busyFCT, err := SoloClientFCT(busy, 0.5*units.GB, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The bandwidth-bound portion doubles but the slow-start ramp is
	// RTT-bound and does not, so the overall slowdown sits between 1.4x
	// and 2x.
	ratio := busyFCT.Seconds() / idleFCT.Seconds()
	if ratio < 1.4 || ratio > 2.2 {
		t.Fatalf("50%% background slowdown = %.2fx (idle %v, busy %v), want ~1.4-2x",
			ratio, idleFCT, busyFCT)
	}
}

func TestConfigValidateRejectsBadCross(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CrossFraction = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad cross traffic accepted by config")
	}
}
