package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinkCountersUtilization(t *testing.T) {
	var c LinkCounters
	// 1 GB/s capacity link observed for 4 seconds.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Record(0, 0, 0))
	must(c.Record(1, 5e8, 50))    // 0.5 GB in 1 s -> 50%
	must(c.Record(2, 1.5e9, 150)) // 1.0 GB -> 100%
	must(c.Record(3, 1.6e9, 160)) // 0.1 GB -> 10%

	ivs, err := c.Utilization(1e9)
	if err != nil {
		t.Fatal(err)
	}
	wantU := []float64{0.5, 1.0, 0.1}
	if len(ivs) != len(wantU) {
		t.Fatalf("got %d intervals", len(ivs))
	}
	for i, w := range wantU {
		if math.Abs(ivs[i].Utilization-w) > 1e-12 {
			t.Errorf("interval %d util = %v, want %v", i, ivs[i].Utilization, w)
		}
	}
	mean, err := c.MeanUtilization(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.6 / 3.0; math.Abs(mean-want) > 1e-12 {
		t.Errorf("mean util = %v, want %v", mean, want)
	}
}

func TestLinkCountersErrors(t *testing.T) {
	var c LinkCounters
	if _, err := c.Utilization(1e9); err == nil {
		t.Error("expected error with no samples")
	}
	if err := c.Record(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Record(4, 0, 0); err == nil {
		t.Error("out-of-order sample should fail")
	}
	if err := c.Record(6, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Utilization(0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := c.MeanUtilization(-1); err == nil {
		t.Error("negative capacity should fail")
	}

	var same LinkCounters
	_ = same.Record(1, 0, 0)
	_ = same.Record(1, 5, 1)
	if _, err := same.MeanUtilization(1); err == nil {
		t.Error("zero-length recording should fail")
	}
}

func TestSeriesSortAndInterpolate(t *testing.T) {
	s := &Series{Name: "fct"}
	s.AddPoint(3, 30)
	s.AddPoint(1, 10)
	s.AddPoint(2, 20)
	s.SortByX()
	if s.X[0] != 1 || s.X[1] != 2 || s.X[2] != 3 {
		t.Fatalf("sorted X = %v", s.X)
	}
	if s.Y[0] != 10 || s.Y[2] != 30 {
		t.Fatalf("Y follows X: %v", s.Y)
	}

	cases := []struct{ x, want float64 }{
		{1, 10},
		{3, 30},
		{1.5, 15},
		{2.25, 22.5},
		{0, 10},  // clamped below
		{10, 30}, // clamped above
	}
	for _, c := range cases {
		got, err := s.InterpolateAt(c.x)
		if err != nil {
			t.Fatalf("InterpolateAt(%v): %v", c.x, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("InterpolateAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}

	var empty Series
	if _, err := empty.InterpolateAt(1); err == nil {
		t.Error("empty series interpolation should fail")
	}
}

func TestSeriesDuplicateX(t *testing.T) {
	s := &Series{X: []float64{1, 2, 2, 3}, Y: []float64{1, 5, 9, 10}}
	got, err := s.InterpolateAt(2)
	if err != nil {
		t.Fatal(err)
	}
	// At a duplicated x the right-hand value wins per implementation;
	// any of the tied values is acceptable — assert it is one of them.
	if got != 5 && got != 9 {
		t.Errorf("InterpolateAt(dup) = %v", got)
	}
}

// Property: interpolation at any x within range is bounded by the min/max y.
func TestQuickInterpolationBounded(t *testing.T) {
	f := func(ys []float64, probe float64) bool {
		if len(ys) == 0 {
			return true
		}
		s := &Series{}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			s.AddPoint(float64(i), y)
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		if math.IsNaN(probe) || math.IsInf(probe, 0) {
			return true
		}
		got, err := s.InterpolateAt(probe)
		if err != nil {
			return false
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
