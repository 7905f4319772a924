package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// TheoreticalTransfer returns T_theoretical (paper §4.1): the ideal
// transmission-only time for size over a link of raw bandwidth bw —
// 0.5 GB at 25 Gbps = 0.16 s.
func TheoreticalTransfer(size units.ByteSize, bw units.BitRate) time.Duration {
	if bw <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return units.Seconds(size.Bytes() / bw.ByteRate().BytesPerSecond())
}

// SSS computes the Streaming Speed Score (Eq. 11):
// SSS = T_worst / T_theoretical. A score near 1 means the network
// delivers near-ideal worst-case behaviour; large scores mean congestion
// tails dominate. Returns an error for non-positive inputs.
func SSS(worst time.Duration, size units.ByteSize, bw units.BitRate) (float64, error) {
	if worst <= 0 {
		return 0, fmt.Errorf("core: non-positive worst-case time %v", worst)
	}
	th := TheoreticalTransfer(size, bw)
	if th <= 0 {
		return 0, fmt.Errorf("core: non-positive theoretical time for %v at %v", size, bw)
	}
	return worst.Seconds() / th.Seconds(), nil
}

// WorstFromSSS inverts Eq. 11: the worst-case transfer time implied by a
// score for a given size and link.
func WorstFromSSS(score float64, size units.ByteSize, bw units.BitRate) (time.Duration, error) {
	if score <= 0 {
		return 0, fmt.Errorf("core: non-positive SSS %v", score)
	}
	th := TheoreticalTransfer(size, bw)
	return units.Seconds(score * th.Seconds()), nil
}

// SSSCurve is a measured relationship between offered/measured link
// utilization and worst-case transfer time, fitted from congestion
// experiments (paper Fig. 2a). The §5 case study extrapolates from this
// curve: 64% utilization → 1.2 s worst case, 96% → 6 s.
type SSSCurve struct {
	// Size and Bandwidth identify the measurement configuration the
	// curve was fitted under (0.5 GB, 25 Gbps in the paper).
	Size      units.ByteSize
	Bandwidth units.BitRate

	series stats.Series // x: utilization fraction, y: worst-case seconds
}

// ErrEmptyCurve is returned when a curve has no fitted points.
var ErrEmptyCurve = errors.New("core: empty SSS curve")

// CurvePoint is one measured (utilization, worst-case) observation.
type CurvePoint struct {
	Utilization float64       // fraction of link capacity, 0..1+
	Worst       time.Duration // worst-case transfer time observed
}

// FitSSSCurve builds a curve from measured points. Points are sorted by
// utilization; duplicates keep the worse (larger) time, staying faithful
// to the paper's worst-case stance.
func FitSSSCurve(size units.ByteSize, bw units.BitRate, pts []CurvePoint) (*SSSCurve, error) {
	if len(pts) == 0 {
		return nil, ErrEmptyCurve
	}
	sorted := append([]CurvePoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Utilization < sorted[j].Utilization })
	c := &SSSCurve{Size: size, Bandwidth: bw}
	for _, p := range sorted {
		n := c.series.Len()
		if n > 0 && c.series.X[n-1] == p.Utilization {
			if w := p.Worst.Seconds(); w > c.series.Y[n-1] {
				c.series.Y[n-1] = w
			}
			continue
		}
		c.series.AddPoint(p.Utilization, p.Worst.Seconds())
	}
	return c, nil
}

// Len returns the number of distinct fitted points.
func (c *SSSCurve) Len() int { return c.series.Len() }

// WorstAt interpolates the worst-case transfer time at the given
// utilization (clamped extrapolation beyond the measured range).
func (c *SSSCurve) WorstAt(utilization float64) (time.Duration, error) {
	if c == nil || c.series.Len() == 0 {
		return 0, ErrEmptyCurve
	}
	y, err := c.series.InterpolateAt(utilization)
	if err != nil {
		return 0, err
	}
	return units.Seconds(y), nil
}

// ScoreAt returns the SSS at the given utilization, i.e.
// WorstAt(u) / T_theoretical for the curve's measurement configuration.
func (c *SSSCurve) ScoreAt(utilization float64) (float64, error) {
	w, err := c.WorstAt(utilization)
	if err != nil {
		return 0, err
	}
	return SSS(w, c.Size, c.Bandwidth)
}

// WorstForBatch estimates the worst-case streaming time for a batch of
// the given size at the given utilization, the way §5 does: the measured
// worst-case transfer time at that load is taken as the characteristic
// congestion delay (worst FCT is sublinear in transfer size, since large
// transfers amortize slow start and loss recovery), floored at the
// batch's theoretical wire time. The paper's 1.2 s at 64% and 6 s at 96%
// come straight off Fig. 2a this way.
func (c *SSSCurve) WorstForBatch(utilization float64, size units.ByteSize) (time.Duration, error) {
	w, err := c.WorstAt(utilization)
	if err != nil {
		return 0, err
	}
	floor := TheoreticalTransfer(size, c.Bandwidth)
	if floor > w {
		return floor, nil
	}
	return w, nil
}

// UtilizationOf returns the fraction of the curve's link a sustained
// generation rate consumes (e.g. 2 GB/s on 25 Gbps = 0.64).
func (c *SSSCurve) UtilizationOf(rate units.ByteRate) float64 {
	bw := c.Bandwidth.ByteRate()
	if bw <= 0 {
		return math.Inf(1)
	}
	return rate.BytesPerSecond() / bw.BytesPerSecond()
}

// Points returns the fitted points (copy).
func (c *SSSCurve) Points() []CurvePoint {
	out := make([]CurvePoint, c.series.Len())
	for i := 0; i < c.series.Len(); i++ {
		out[i] = CurvePoint{
			Utilization: c.series.X[i],
			Worst:       units.Seconds(c.series.Y[i]),
		}
	}
	return out
}
