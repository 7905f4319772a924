package monitor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

func testConfig() Config {
	return Config{
		Window:    10 * time.Second,
		Size:      0.5 * units.GB,
		Bandwidth: 25 * units.Gbps,
	}
}

func snapshot(t *testing.T, tr *Tracker) Snapshot {
	t.Helper()
	s, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Window: 0, Size: units.GB, Bandwidth: units.Gbps},
		{Window: time.Second, Size: 0, Bandwidth: units.Gbps},
		{Window: time.Second, Size: units.GB, Bandwidth: 0},
	}
	for i, c := range bad {
		if _, err := NewTracker(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewTracker(testConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestObserveAndStats(t *testing.T) {
	tr, err := NewTracker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Snapshot(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty snapshot err = %v", err)
	}
	for i, fct := range []time.Duration{200 * time.Millisecond, 300 * time.Millisecond, 5 * time.Second} {
		if err := tr.Observe(float64(i), fct); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	snap := snapshot(t, tr)
	if snap.Worst != 5*time.Second {
		t.Fatalf("worst = %v", snap.Worst)
	}
	if math.Abs(snap.SSS-31.25) > 0.01 {
		t.Fatalf("SSS = %v, want 31.25", snap.SSS)
	}
	if snap.Regime != core.RegimeSevere {
		t.Fatalf("regime = %v", snap.Regime)
	}
}

func TestWindowExpiry(t *testing.T) {
	tr, err := NewTracker(testConfig()) // 10 s window
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(0, 5*time.Second); err != nil { // the congested event
		t.Fatal(err)
	}
	if err := tr.Observe(5, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// At t=9 the bad event is still in the window.
	if err := tr.Advance(9); err != nil {
		t.Fatal(err)
	}
	if w := snapshot(t, tr).Worst; w != 5*time.Second {
		t.Fatalf("worst at t=9 = %v", w)
	}
	// At t=11 it expires; the window holds only the fast transfer.
	if err := tr.Advance(11); err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, tr)
	if snap.Worst != 200*time.Millisecond {
		t.Fatalf("worst after expiry = %v", snap.Worst)
	}
	if snap.Regime != core.RegimeLow {
		t.Fatalf("regime after recovery = %v", snap.Regime)
	}
	// Everything can expire.
	if err := tr.Advance(100); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Snapshot(); !errors.Is(err, ErrEmptyWindow) {
		t.Fatalf("err = %v", err)
	}
}

func TestClockDiscipline(t *testing.T) {
	tr, err := NewTracker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(5, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(4, time.Second); err == nil {
		t.Error("backwards observation accepted")
	}
	if err := tr.Advance(3); err == nil {
		t.Error("backwards advance accepted")
	}
	if err := tr.Observe(5, 0); err == nil {
		t.Error("zero FCT accepted")
	}
}

func TestSnapshot(t *testing.T) {
	tr, err := NewTracker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		if err := tr.Observe(float64(i)*0.05, 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Observe(5, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != 100 || snap.Worst != 2*time.Second {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.P50 != 200*time.Millisecond {
		t.Fatalf("p50 = %v", snap.P50)
	}
	if snap.P99 <= snap.P50 {
		t.Fatalf("p99 %v should exceed p50 %v", snap.P99, snap.P50)
	}
	if snap.Regime != core.RegimeModerate {
		t.Fatalf("regime = %v", snap.Regime)
	}
	if snap.String() == "" {
		t.Error("empty snapshot string")
	}
	var empty Tracker
	if _, err := empty.Snapshot(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("empty snapshot err = %v", err)
	}
}

func TestCustomClassifier(t *testing.T) {
	cfg := testConfig()
	cfg.Classifier = core.RegimeClassifier{RealTimeBound: 100 * time.Millisecond, SevereBound: 500 * time.Millisecond}
	tr, err := NewTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(0, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if regime := snapshot(t, tr).Regime; regime != core.RegimeModerate {
		t.Fatalf("custom classifier regime = %v", regime)
	}
}

// Property: the windowed worst equals the max of the observations still
// inside the window, for any observation pattern.
func TestQuickWindowedWorst(t *testing.T) {
	f := func(fctsMs []uint16, stepDs []uint8) bool {
		tr, err := NewTracker(testConfig()) // 10 s window
		if err != nil {
			return false
		}
		type rec struct {
			at  float64
			fct float64
		}
		var all []rec
		now := 0.0
		for i, ms := range fctsMs {
			if i < len(stepDs) {
				now += float64(stepDs[i]) / 10 // steps up to 25.5 s
			}
			fct := time.Duration(int(ms)+1) * time.Millisecond
			if err := tr.Observe(now, fct); err != nil {
				return false
			}
			all = append(all, rec{at: now, fct: fct.Seconds()})
		}
		if len(all) == 0 {
			return true
		}
		want := 0.0
		cutoff := now - 10
		for _, r := range all {
			if r.at >= cutoff && r.fct > want {
				want = r.fct
			}
		}
		got, err := tr.Snapshot()
		if err != nil {
			return false
		}
		return math.Abs(got.Worst.Seconds()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
