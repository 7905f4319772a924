package stats

import (
	"fmt"
	"sort"
)

// LinkCounters mimics the "network-level metrics (interface byte/packet
// counters)" the paper collects: cumulative bytes observed on an
// interface, sampled over time so that utilization per interval can be
// derived afterwards.
type LinkCounters struct {
	samples []counterSample
}

type counterSample struct {
	t     float64 // seconds since experiment start
	bytes float64 // cumulative bytes
}

// Record appends a cumulative counter sample at time t (seconds).
// Samples must be recorded with non-decreasing t; out-of-order samples
// are rejected.
func (c *LinkCounters) Record(t, cumBytes float64) error {
	if n := len(c.samples); n > 0 && t < c.samples[n-1].t {
		return fmt.Errorf("stats: counter sample at t=%v before previous t=%v", t, c.samples[n-1].t)
	}
	c.samples = append(c.samples, counterSample{t: t, bytes: cumBytes})
	return nil
}

// Reset discards all samples while keeping the underlying capacity, so a
// reused recorder (tcpsim's engine) stays allocation-free in steady
// state.
func (c *LinkCounters) Reset() { c.samples = c.samples[:0] }

// UtilizationInterval is the average utilization over one sampling
// interval, derived from consecutive cumulative counters.
type UtilizationInterval struct {
	Bytes       float64 // bytes moved in the interval
	Utilization float64 // fraction of capacity used (0..1+), given capacity in bytes/s
}

// Utilization derives per-interval utilization for a link of
// capacityBytesPerSec. At least two samples are required.
func (c *LinkCounters) Utilization(capacityBytesPerSec float64) ([]UtilizationInterval, error) {
	if len(c.samples) < 2 {
		return nil, fmt.Errorf("stats: need >=2 counter samples, have %d", len(c.samples))
	}
	if capacityBytesPerSec <= 0 {
		return nil, fmt.Errorf("stats: non-positive capacity %v", capacityBytesPerSec)
	}
	out := make([]UtilizationInterval, 0, len(c.samples)-1)
	for i := 1; i < len(c.samples); i++ {
		a, b := c.samples[i-1], c.samples[i]
		dt := b.t - a.t
		iv := UtilizationInterval{Bytes: b.bytes - a.bytes}
		if dt > 0 {
			iv.Utilization = iv.Bytes / dt / capacityBytesPerSec
		}
		out = append(out, iv)
	}
	return out, nil
}

// MeanUtilization returns the byte-weighted mean utilization across the
// whole recording, i.e. total bytes / (duration * capacity). This is the
// "measured utilization" the paper plots on the x-axis of Fig. 2.
func (c *LinkCounters) MeanUtilization(capacityBytesPerSec float64) (float64, error) {
	if len(c.samples) < 2 {
		return 0, fmt.Errorf("stats: need >=2 counter samples, have %d", len(c.samples))
	}
	if capacityBytesPerSec <= 0 {
		return 0, fmt.Errorf("stats: non-positive capacity %v", capacityBytesPerSec)
	}
	first, last := c.samples[0], c.samples[len(c.samples)-1]
	dt := last.t - first.t
	if dt <= 0 {
		return 0, fmt.Errorf("stats: zero-length recording")
	}
	return (last.bytes - first.bytes) / dt / capacityBytesPerSec, nil
}

// Series is an ordered (x, y) sequence used to hand data to the plot
// package and CSV writers.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends one point.
func (s *Series) AddPoint(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// SortByX sorts the series points by ascending x, keeping pairs together.
func (s *Series) SortByX() {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	nx := make([]float64, len(s.X))
	ny := make([]float64, len(s.Y))
	for i, j := range idx {
		nx[i] = s.X[j]
		ny[i] = s.Y[j]
	}
	s.X, s.Y = nx, ny
}

// InterpolateAt returns the piecewise-linear interpolation of the series
// at x. Outside the x-range the nearest endpoint value is returned
// (clamped extrapolation). The series must be sorted by X and non-empty.
func (s *Series) InterpolateAt(x float64) (float64, error) {
	n := len(s.X)
	if n == 0 {
		return 0, ErrNoSamples
	}
	if x <= s.X[0] {
		return s.Y[0], nil
	}
	if x >= s.X[n-1] {
		return s.Y[n-1], nil
	}
	i := sort.SearchFloat64s(s.X, x)
	// s.X[i-1] < x <= s.X[i]
	x0, x1 := s.X[i-1], s.X[i]
	y0, y1 := s.Y[i-1], s.Y[i]
	if x1 == x0 {
		return y1, nil
	}
	f := (x - x0) / (x1 - x0)
	return y0 + f*(y1-y0), nil
}
