package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySampleErrors(t *testing.T) {
	var s Sample
	if _, err := s.Min(); err != ErrNoSamples {
		t.Errorf("Min: %v", err)
	}
	if _, err := s.Max(); err != ErrNoSamples {
		t.Errorf("Max: %v", err)
	}
	if _, err := s.Mean(); err != ErrNoSamples {
		t.Errorf("Mean: %v", err)
	}
	if _, err := s.StdDev(); err != ErrNoSamples {
		t.Errorf("StdDev: %v", err)
	}
	if _, err := s.Quantile(0.5); err != ErrNoSamples {
		t.Errorf("Quantile: %v", err)
	}
	if _, err := s.CDF(); err != ErrNoSamples {
		t.Errorf("CDF: %v", err)
	}
	if _, err := s.Summarize(); err != ErrNoSamples {
		t.Errorf("Summarize: %v", err)
	}
	if _, err := s.TailIndex(); err != ErrNoSamples {
		t.Errorf("TailIndex: %v", err)
	}
}

func TestBasicMoments(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	mean, err := s.Mean()
	if err != nil || mean != 5 {
		t.Fatalf("Mean = %v, %v; want 5", mean, err)
	}
	sd, err := s.StdDev()
	if err != nil {
		t.Fatal(err)
	}
	// Sample (n-1) stddev of that classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(sd-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", sd, want)
	}
	min, _ := s.Min()
	max, _ := s.Max()
	if min != 2 || max != 9 {
		t.Fatalf("min/max = %v/%v", min, max)
	}
}

func TestSingleObservation(t *testing.T) {
	s := NewSample(3.14)
	sd, err := s.StdDev()
	if err != nil || sd != 0 {
		t.Fatalf("StdDev single = %v, %v", sd, err)
	}
	q, err := s.Quantile(0.99)
	if err != nil || q != 3.14 {
		t.Fatalf("Quantile single = %v, %v", q, err)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample(1, 2, 3, 4)
	cases := []struct{ q, want float64 }{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
		{1.0 / 3.0, 2},
	}
	for _, c := range cases {
		got, err := s.Quantile(c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(bad); err == nil {
			t.Errorf("Quantile(%v) should fail", bad)
		}
	}
}

func TestQuantileAfterAddResorts(t *testing.T) {
	s := NewSample(5, 1)
	if q, _ := s.Quantile(1); q != 5 {
		t.Fatalf("max = %v", q)
	}
	s.Add(10)
	if q, _ := s.Quantile(1); q != 10 {
		t.Fatalf("max after Add = %v, want 10", q)
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(1, 1, 2, 3, 3, 3)
	pts, err := s.CDF()
	if err != nil {
		t.Fatal(err)
	}
	want := []CDFPoint{{1, 2.0 / 6}, {2, 3.0 / 6}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("CDF has %d points, want %d: %v", len(pts), len(want), pts)
	}
	for i := range want {
		if pts[i].X != want[i].X || math.Abs(pts[i].P-want[i].P) > 1e-12 {
			t.Errorf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSample(1, 2, 3)
	sm, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sm.N != 3 || sm.Min != 1 || sm.Max != 3 || sm.Mean != 2 {
		t.Fatalf("summary %+v", sm)
	}
	if sm.String() == "" {
		t.Fatal("empty string")
	}
}

func TestTailIndex(t *testing.T) {
	uniform := NewSample(1, 1, 1, 1)
	ti, err := uniform.TailIndex()
	if err != nil || ti != 1 {
		t.Fatalf("uniform tail = %v, %v", ti, err)
	}
	tailed := NewSample(1, 1, 1, 1, 1, 1, 1, 1, 1, 30)
	ti, _ = tailed.TailIndex()
	if ti != 30 {
		t.Fatalf("tailed = %v, want 30", ti)
	}
	zeros := NewSample(0, 0)
	ti, _ = zeros.TailIndex()
	if ti != 1 {
		t.Fatalf("all-zero tail = %v, want 1", ti)
	}
	zeroMedian := NewSample(0, 0, 0, 5)
	ti, _ = zeroMedian.TailIndex()
	if !math.IsInf(ti, 1) {
		t.Fatalf("zero-median tail = %v, want +Inf", ti)
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		clamp := func(q float64) float64 {
			q = math.Abs(math.Mod(q, 1))
			if math.IsNaN(q) {
				return 0.5
			}
			return q
		}
		qa, qb = clamp(qa), clamp(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		s := NewSample(xs...)
		va, err1 := s.Quantile(qa)
		vb, err2 := s.Quantile(qb)
		if err1 != nil || err2 != nil {
			return false
		}
		min, _ := s.Min()
		max, _ := s.Max()
		return va <= vb+1e-9 && va >= min-1e-9 && vb <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the CDF is a proper distribution function — x strictly
// increasing, P non-decreasing, final P exactly 1.
func TestQuickCDFWellFormed(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pts, err := NewSample(xs...).CDF()
		if err != nil || len(pts) == 0 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P < pts[i-1].P {
				return false
			}
		}
		return pts[len(pts)-1].P == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := NewSample(xs...)
		mean, _ := s.Mean()
		min, _ := s.Min()
		max, _ := s.Max()
		return mean >= min-1e-6 && mean <= max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	s := NewSample(xs...)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Exact ranks must match the sorted slice directly.
	for _, q := range []float64{0, 1} {
		got, _ := s.Quantile(q)
		want := sorted[int(q*float64(len(sorted)-1))]
		if got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// p99 must be >= 99% of values.
	p99, _ := s.Quantile(0.99)
	below := 0
	for _, x := range xs {
		if x <= p99 {
			below++
		}
	}
	if frac := float64(below) / float64(len(xs)); frac < 0.985 {
		t.Errorf("p99 covers only %v of sample", frac)
	}
}
