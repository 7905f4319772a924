// Package stats provides the sample statistics the paper's measurement
// methodology needs: summaries (mean/min/max/stddev), exact quantiles,
// empirical CDFs and tail metrics (P90/P99/max). The paper
// argues that worst-case and tail behaviour — not averages — determine
// streaming feasibility, so max and high quantiles are first-class here.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by operations that require at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// Sample is a growable collection of float64 observations.
// The zero value is an empty sample ready for use.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-seeded with xs (the slice is copied).
func NewSample(xs ...float64) *Sample {
	s := &Sample{xs: append([]float64(nil), xs...)}
	return s
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Reset empties the sample while keeping its backing storage, so hot
// loops (one sample per sweep cell) reuse one Sample allocation-free.
// Statistics computed after Reset+Add are identical to a fresh Sample's.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns a copy of the observations in insertion-or-sorted order
// (sorted if a quantile has been computed since the last Add).
func (s *Sample) Values() []float64 { return append([]float64(nil), s.xs...) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Min returns the smallest observation.
func (s *Sample) Min() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrNoSamples
	}
	s.ensureSorted()
	return s.xs[0], nil
}

// Max returns the largest observation. The paper uses per-experiment max
// transfer time as its worst-case estimator (T_worst).
func (s *Sample) Max() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrNoSamples
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1], nil
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrNoSamples
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs)), nil
}

// StdDev returns the sample (n-1) standard deviation. A single
// observation yields 0.
func (s *Sample) StdDev() (float64, error) {
	n := len(s.xs)
	if n == 0 {
		return 0, ErrNoSamples
	}
	if n == 1 {
		return 0, nil
	}
	m, _ := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1)), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation between closest ranks (type-7 / the default in R and
// NumPy), so Quantile(0.5) is the conventional median.
func (s *Sample) Quantile(q float64) (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrNoSamples
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	s.ensureSorted()
	n := len(s.xs)
	if n == 1 {
		return s.xs[0], nil
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo], nil
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac, nil
}

// Summary bundles the statistics the experiment reports print.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() (Summary, error) {
	if len(s.xs) == 0 {
		return Summary{}, ErrNoSamples
	}
	min, _ := s.Min()
	max, _ := s.Max()
	mean, _ := s.Mean()
	sd, _ := s.StdDev()
	p50, _ := s.Quantile(0.50)
	p90, _ := s.Quantile(0.90)
	p99, _ := s.Quantile(0.99)
	return Summary{
		N: len(s.xs), Min: min, Max: max, Mean: mean, StdDev: sd,
		P50: p50, P90: p90, P99: p99,
	}, nil
}

// String renders the summary on one line.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g sd=%.4g",
		sm.N, sm.Min, sm.Mean, sm.P50, sm.P90, sm.P99, sm.Max, sm.StdDev)
}

// TailIndex quantifies long-tail behaviour as max/p50. The paper's Fig. 3
// observation — "non-linear increases at the P90 and P99 levels" — shows
// up as a tail index well above ~2.
func (s *Sample) TailIndex() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrNoSamples
	}
	p50, err := s.Quantile(0.5)
	if err != nil {
		return 0, err
	}
	max, _ := s.Max()
	if p50 == 0 {
		if max == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return max / p50, nil
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // observation value
	P float64 // cumulative probability P(X <= x)
}

// CDF returns the empirical cumulative distribution function of the
// sample as a sequence of points, one per distinct observation, with
// P strictly increasing to 1.
func (s *Sample) CDF() ([]CDFPoint, error) {
	if len(s.xs) == 0 {
		return nil, ErrNoSamples
	}
	s.ensureSorted()
	n := len(s.xs)
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		// Collapse ties: emit one point per distinct value with the
		// highest cumulative count.
		if i+1 < n && s.xs[i+1] == s.xs[i] {
			continue
		}
		pts = append(pts, CDFPoint{X: s.xs[i], P: float64(i+1) / float64(n)})
	}
	return pts, nil
}
