package monitor

import (
	"testing"
	"time"

	"repro/internal/units"
)

func TestQuantileBounds(t *testing.T) {
	tr, err := NewTracker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []time.Duration{100, 200, 300, 400} {
		if err := tr.Observe(float64(i), d*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if p50 := snapshot(t, tr).P50; p50 != 250*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
}

func TestObserveExactlyAtWindowEdge(t *testing.T) {
	tr, err := NewTracker(Config{
		Window:    5 * time.Second,
		Size:      0.5 * units.GB,
		Bandwidth: 25 * units.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(0, time.Second); err != nil {
		t.Fatal(err)
	}
	// At exactly t=5 the t=0 observation sits on the cutoff boundary
	// (cutoff is exclusive: at < cutoff expires). It must survive at
	// t=5 and expire just past it.
	if err := tr.Advance(5); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("len at edge = %d", tr.Len())
	}
	if err := tr.Advance(5.001); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("len past edge = %d", tr.Len())
	}
}

func TestObserveSameTimestamp(t *testing.T) {
	tr, err := NewTracker(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Multiple completions in the same instant are normal (parallel
	// flows finishing together).
	for i := 0; i < 3; i++ {
		if err := tr.Observe(1, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
}
