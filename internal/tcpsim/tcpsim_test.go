package tcpsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero capacity", func(c *Config) { c.Capacity = 0 }},
		{"zero rtt", func(c *Config) { c.BaseRTT = 0 }},
		{"zero mss", func(c *Config) { c.MSS = 0 }},
		{"zero init cwnd", func(c *Config) { c.InitCwndSegments = 0 }},
		{"zero rto", func(c *Config) { c.RTO = 0 }},
		{"negative buffer", func(c *Config) { c.Buffer = -1 }},
		{"nan capacity", func(c *Config) { c.Capacity = units.BitRate(math.NaN()) }},
		{"infinite capacity", func(c *Config) { c.Capacity = units.BitRate(math.Inf(1)) }},
		{"nan mss", func(c *Config) { c.MSS = units.ByteSize(math.NaN()) }},
		{"infinite mss", func(c *Config) { c.MSS = units.ByteSize(math.Inf(1)) }},
		{"nan buffer", func(c *Config) { c.Buffer = units.ByteSize(math.NaN()) }},
		{"infinite buffer", func(c *Config) { c.Buffer = units.ByteSize(math.Inf(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestBDP(t *testing.T) {
	// 25 Gbps * 16 ms = 3.125e9 B/s * 0.016 s = 50 MB.
	c := DefaultConfig()
	if got := c.BDP(); math.Abs(got-50e6) > 1 {
		t.Fatalf("BDP = %v, want 50e6", got)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run(cfg, nil); !errors.Is(err, ErrNoFlows) {
		t.Errorf("no flows: %v", err)
	}
	bad := []FlowSpec{{ID: 1, Arrival: -1, Size: units.GB}}
	if _, err := Run(cfg, bad); !errors.Is(err, ErrBadFlowSpec) {
		t.Errorf("bad arrival: %v", err)
	}
	bad = []FlowSpec{{ID: 1, Arrival: math.NaN(), Size: units.GB}}
	if _, err := Run(cfg, bad); !errors.Is(err, ErrBadFlowSpec) {
		t.Errorf("NaN arrival: %v", err)
	}
	bad = []FlowSpec{{ID: 1, Arrival: 0, Size: -5}}
	if _, err := Run(cfg, bad); !errors.Is(err, ErrBadFlowSpec) {
		t.Errorf("negative size: %v", err)
	}
	for _, size := range []float64{math.NaN(), math.Inf(1)} {
		bad = []FlowSpec{{ID: 1, Arrival: 0, Size: units.ByteSize(size)}}
		if _, err := Run(cfg, bad); !errors.Is(err, ErrBadFlowSpec) {
			t.Errorf("size %v: %v", size, err)
		}
	}
}

func TestSingleFlowNearTheoretical(t *testing.T) {
	// One 0.5 GB flow on an idle 25 Gbps link: theoretical 0.16 s; with
	// slow start the simulator should land in [0.16, 0.40] s — the same
	// ballpark as the paper's measured 0.2 s solo transfers.
	cfg := DefaultConfig()
	res, err := Run(cfg, []FlowSpec{{ID: 1, Arrival: 0, Size: 0.5 * units.GB}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	fct := res.Flows[0].Duration()
	if fct < 0.16 || fct > 0.40 {
		t.Fatalf("solo FCT = %v s, want [0.16, 0.40]", fct)
	}
	if res.Flows[0].Retransmits != 0 {
		t.Errorf("idle link should not drop: %d retransmits", res.Flows[0].Retransmits)
	}
	if res.DroppedBytes != 0 {
		t.Errorf("idle link dropped %v bytes", res.DroppedBytes)
	}
}

func TestParallelFlowsRampFaster(t *testing.T) {
	// The same 0.5 GB split across 8 parallel flows finishes sooner than
	// one flow, because aggregate slow start ramps 8x faster — the reason
	// GridFTP/iperf3 use parallel streams.
	cfg := DefaultConfig()
	solo, err := SoloClientFCT(cfg, 0.5*units.GB, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SoloClientFCT(cfg, 0.5*units.GB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if par >= solo {
		t.Fatalf("8 flows (%v) should beat 1 flow (%v)", par, solo)
	}
	// And stay above the hard physical floor.
	floor := 160 * time.Millisecond
	if par < floor {
		t.Fatalf("parallel FCT %v beats link capacity %v", par, floor)
	}
}

func TestSoloClientErrors(t *testing.T) {
	if _, err := SoloClientFCT(DefaultConfig(), units.GB, 0); err == nil {
		t.Error("zero flows accepted")
	}
}

func TestZeroSizeFlowInstant(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, []FlowSpec{
		{ID: 1, Arrival: 2, Size: 0},
		{ID: 2, Arrival: 0, Size: units.MB},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.ID == 1 {
			if f.End != 2 || f.Duration() != 0 {
				t.Fatalf("zero-size flow: %+v", f)
			}
		}
	}
}

func TestFairSharingTwoFlows(t *testing.T) {
	// Two simultaneous equal flows should finish within ~25% of each
	// other (loss randomization allows some spread).
	cfg := DefaultConfig()
	res, err := Run(cfg, []FlowSpec{
		{ID: 1, Arrival: 0, Size: units.GB},
		{ID: 2, Arrival: 0, Size: units.GB},
	})
	if err != nil {
		t.Fatal(err)
	}
	d1 := res.Flows[0].Duration()
	d2 := res.Flows[1].Duration()
	ratio := d1 / d2
	if ratio < 0.75 || ratio > 1.33 {
		t.Fatalf("unfair split: %v vs %v", d1, d2)
	}
	// Sharing must roughly halve throughput versus solo.
	solo, _ := SoloClientFCT(cfg, units.GB, 1)
	if d1 < solo.Seconds()*1.3 {
		t.Errorf("shared flow %v too close to solo %v", d1, solo)
	}
}

func TestOverloadGrowsTail(t *testing.T) {
	// Offered load 128% of capacity for 5 seconds: the worst FCT must
	// blow up well beyond the uncongested FCT — the paper's severe
	// congestion regime.
	cfg := DefaultConfig()
	var specs []FlowSpec
	id := 0
	for sec := 0; sec < 5; sec++ {
		for c := 0; c < 8; c++ { // 8 clients/s x 0.5 GB = 4 GB/s on 3.125 GB/s
			specs = append(specs, FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
			id++
		}
	}
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, f := range res.Flows {
		if d := f.Duration(); d > worst {
			worst = d
		}
	}
	uncongested, _ := SoloClientFCT(cfg, 0.5*units.GB, 1)
	if worst < 4*uncongested.Seconds() {
		t.Fatalf("overload worst FCT %v s vs uncongested %v — no congestion blow-up", worst, uncongested)
	}
	if res.DroppedBytes == 0 {
		t.Error("sustained overload should overflow the buffer")
	}
	// Utilization must be pinned near capacity.
	util, err := res.MeanUtilization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The mean includes the slow-start ramp, loss-synchronization dips,
	// and the final drain, so it sits below the saturated steady state.
	if util < 0.7 {
		t.Errorf("overload utilization = %v, want >0.7", util)
	}
}

func TestLoadMonotoneWorstCase(t *testing.T) {
	// Worst-case FCT should (weakly) increase with offered load —
	// Fig. 2a's monotone growth.
	cfg := DefaultConfig()
	worstAt := func(clientsPerSec int) float64 {
		var specs []FlowSpec
		id := 0
		for sec := 0; sec < 5; sec++ {
			for c := 0; c < clientsPerSec; c++ {
				specs = append(specs, FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
				id++
			}
		}
		res, err := Run(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, f := range res.Flows {
			if d := f.Duration(); d > worst {
				worst = d
			}
		}
		return worst
	}
	low := worstAt(1)  // 16% load
	mid := worstAt(5)  // 80% load
	high := worstAt(8) // 128% load
	if !(low <= mid*1.05 && mid <= high*1.05) {
		t.Fatalf("worst FCT not monotone-ish: %v, %v, %v", low, mid, high)
	}
	if high < 2*low {
		t.Fatalf("saturation should at least double worst FCT: low=%v high=%v", low, high)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	specs := []FlowSpec{
		{ID: 1, Arrival: 0, Size: 0.5 * units.GB},
		{ID: 2, Arrival: 0, Size: 0.5 * units.GB},
		{ID: 3, Arrival: 0.5, Size: 0.5 * units.GB},
		{ID: 4, Arrival: 1, Size: 0.5 * units.GB},
	}
	a, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("same seed diverged: %+v vs %+v", a.Flows[i], b.Flows[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c, err := Run(cfg2, specs)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not change results at low load; no assertion
}

func TestIdleGapBetweenArrivals(t *testing.T) {
	// Two flows separated by a long idle gap: the second must not pay
	// for the first's queue.
	cfg := DefaultConfig()
	res, err := Run(cfg, []FlowSpec{
		{ID: 1, Arrival: 0, Size: 0.5 * units.GB},
		{ID: 2, Arrival: 10, Size: 0.5 * units.GB},
	})
	if err != nil {
		t.Fatal(err)
	}
	d1 := res.Flows[0].Duration()
	d2 := res.Flows[1].Duration()
	if math.Abs(d1-d2) > 0.02 {
		t.Fatalf("isolated flows should match: %v vs %v", d1, d2)
	}
}

func TestHorizonGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = units.Mbps
	cfg.BaseRTT = time.Second
	// 1 GB cannot finish within the 3,600-s horizon at 1 Mbps (at most
	// 450 MB can); one-second rounds keep the run near 3,600 rounds.
	_, err := Run(cfg, []FlowSpec{{ID: 1, Arrival: 0, Size: units.GB}})
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("err = %v, want horizon", err)
	}
}

func TestCountersConserveBytes(t *testing.T) {
	cfg := DefaultConfig()
	size := 0.5 * units.GB
	res, err := Run(cfg, []FlowSpec{
		{ID: 1, Arrival: 0, Size: size},
		{ID: 2, Arrival: 0.2, Size: size},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Served bytes (counters) must equal payload plus retransmitted
	// bytes, within one MSS per flow of rounding.
	ivs, err := res.Counters.Utilization(cfg.Capacity.ByteRate().BytesPerSecond())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, iv := range ivs {
		total += iv.Bytes
	}
	payload := 2 * size.Bytes()
	if total < payload*0.99 || total > payload*1.2 {
		t.Fatalf("served %v bytes for %v payload", total, payload)
	}
}

func TestResultsSortedByArrival(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, []FlowSpec{
		{ID: 3, Arrival: 2, Size: units.MB},
		{ID: 1, Arrival: 0, Size: units.MB},
		{ID: 2, Arrival: 1, Size: units.MB},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Flows); i++ {
		if res.Flows[i].Arrival < res.Flows[i-1].Arrival {
			t.Fatalf("not sorted: %+v", res.Flows)
		}
	}
}

func TestDefaultBufferIsHalfBDP(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.bufferBytes(); math.Abs(got-25e6) > 1 {
		t.Fatalf("default buffer = %v, want 2.5e7 (BDP/2)", got)
	}
	cfg.Buffer = units.MB
	if got := cfg.bufferBytes(); got != 1e6 {
		t.Fatalf("explicit buffer = %v", got)
	}
}
