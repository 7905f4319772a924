package tcpsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

func TestCrossTrafficValidate(t *testing.T) {
	good := []CrossTraffic{
		{},
		{Fraction: 0.5},
		{Fraction: 0.5, Period: time.Second, Duty: 0.5},
		{Fraction: 0.95, Period: time.Minute, Duty: 1},
	}
	for i, ct := range good {
		if err := ct.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
	bad := []CrossTraffic{
		{Fraction: -0.1},
		{Fraction: 0.96},
		{Fraction: math.NaN()},
		{Fraction: 0.5, Period: -time.Second},
		{Fraction: 0.5, Period: time.Second, Duty: 0},
		{Fraction: 0.5, Period: time.Second, Duty: 1.5},
	}
	for i, ct := range bad {
		if err := ct.Validate(); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, ct)
		}
	}
}

func TestCrossTrafficWaveform(t *testing.T) {
	ct := CrossTraffic{Fraction: 0.4, Period: time.Second, Duty: 0.25}
	// ON for the first quarter of each period.
	if got := ct.consumedAt(0.1, 0); got != 0.4 {
		t.Errorf("t=0.1 load = %v", got)
	}
	if got := ct.consumedAt(0.5, 0); got != 0 {
		t.Errorf("t=0.5 load = %v", got)
	}
	if got := ct.consumedAt(1.1, 0); got != 0.4 {
		t.Errorf("t=1.1 load = %v (periodic)", got)
	}
	// Phase shifts the wave.
	if got := ct.consumedAt(0.5, 0.6); got != 0.4 {
		t.Errorf("phased t=0.5 load = %v", got)
	}
	// Constant background.
	constant := CrossTraffic{Fraction: 0.3}
	if got := constant.consumedAt(123.4, 0); got != 0.3 {
		t.Errorf("constant = %v", got)
	}
	var none CrossTraffic
	if got := none.consumedAt(1, 0); got != 0 {
		t.Errorf("disabled = %v", got)
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
	busy.Cross = CrossTraffic{Fraction: 0.5}
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

func TestCrossTrafficOnOffAddsVariance(t *testing.T) {
	// With a bursty background, flows that land in ON phases suffer and
	// flows in OFF phases don't: completion spread must widen vs idle.
	spread := func(cfg Config) float64 {
		var specs []FlowSpec
		for i := 0; i < 10; i++ {
			specs = append(specs, FlowSpec{ID: i, Arrival: float64(i) * 0.7, Size: 100 * units.MB})
		}
		res, err := Run(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		min, max := math.Inf(1), 0.0
		for _, f := range res.Flows {
			d := f.Duration()
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		return max / min
	}
	idle := DefaultConfig()
	bursty := DefaultConfig()
	bursty.Cross = CrossTraffic{Fraction: 0.8, Period: 1400 * time.Millisecond, Duty: 0.5}
	if sIdle, sBusy := spread(idle), spread(bursty); sBusy < sIdle*1.2 {
		t.Fatalf("bursty background spread %.2f should exceed idle %.2f", sBusy, sIdle)
	}
}

func TestPhaseJitterIsSeeded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cross = CrossTraffic{Fraction: 0.8, Period: time.Second, Duty: 0.5, PhaseJitter: true}
	specs := []FlowSpec{{ID: 1, Arrival: 0, Size: 200 * units.MB}}
	a, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows[0] != b.Flows[0] {
		t.Fatal("same seed with phase jitter diverged")
	}
	cfg2 := cfg
	cfg2.Seed = 42
	c, err := Run(cfg2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows[0].End == c.Flows[0].End {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestRecordQueueDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordQueue = true
	var specs []FlowSpec
	for i := 0; i < 12; i++ { // saturating burst
		specs = append(specs, FlowSpec{ID: i, Arrival: 0, Size: 0.5 * units.GB})
	}
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueDepth.Len() == 0 {
		t.Fatal("no queue samples recorded")
	}
	buffer := cfg.BDP() / 2
	sawBacklog := false
	for i := 0; i < res.QueueDepth.Len(); i++ {
		q := res.QueueDepth.Y[i]
		if q < 0 || q > buffer+1 {
			t.Fatalf("queue sample %v outside [0, buffer=%v]", q, buffer)
		}
		if q > buffer*0.9 {
			sawBacklog = true
		}
	}
	if !sawBacklog {
		t.Error("saturating burst never filled the buffer")
	}
	// Disabled by default.
	cfg.RecordQueue = false
	res, err = Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueDepth.Len() != 0 {
		t.Error("queue recorded when disabled")
	}
}

func TestConfigValidateRejectsBadCross(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cross = CrossTraffic{Fraction: 2}
	if err := cfg.Validate(); err == nil {
		t.Fatal("bad cross traffic accepted by config")
	}
}
