package core

import (
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/units"
)

// ErrNoBreakEven is returned when no parameter value can equalize the
// local and remote paths (e.g. remote compute alone already exceeds the
// local completion time, so no transfer efficiency can rescue it).
var ErrNoBreakEven = errors.New("core: no break-even point exists")

// headroom returns T_local − T_remote in seconds; the remote path can
// only break even when this is positive (there must be compute-time
// savings to spend on the transfer).
func (p Params) headroom() float64 {
	return p.TLocal().Seconds() - p.TRemote().Seconds()
}

// BreakEvenTheta returns the largest θ at which the remote path still
// ties local: θ* = (T_local − T_remote)·α·Bw / S_unit. For θ < θ* remote
// wins. An error is returned when remote cannot win at any θ >= 1.
func (p Params) BreakEvenTheta() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	head := p.headroom()
	tt := p.TTransfer().Seconds()
	if tt <= 0 {
		return 0, fmt.Errorf("core: degenerate transfer time %v", tt)
	}
	theta := head / tt
	if theta < 1 {
		return 0, fmt.Errorf("%w: even pure streaming (theta=1) loses to local (T_local-T_remote=%.3gs, T_transfer=%.3gs)",
			ErrNoBreakEven, head, tt)
	}
	return theta, nil
}

// BreakEvenAlpha returns the smallest transfer efficiency α at which the
// remote path ties local: α* = θ·S_unit / (Bw·(T_local − T_remote)).
// An error is returned when even α = 1 cannot break even, or when remote
// compute alone already exceeds local time.
func (p Params) BreakEvenAlpha() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	head := p.headroom()
	if head <= 0 {
		return 0, fmt.Errorf("%w: remote compute time %v already exceeds local %v",
			ErrNoBreakEven, p.TRemote(), p.TLocal())
	}
	bw := p.Bandwidth.ByteRate().BytesPerSecond()
	alpha := p.Theta * p.UnitSize.Bytes() / (bw * head)
	if alpha > 1 {
		return 0, fmt.Errorf("%w: required alpha %.3f exceeds 1 (link too slow for theta=%.2f)",
			ErrNoBreakEven, alpha, p.Theta)
	}
	return alpha, nil
}

// BreakEvenR returns the smallest remote-to-local compute ratio r at
// which the remote path ties local:
// r* = C·S_unit / (R_local·(T_local − θ·T_transfer)).
// An error is returned when the transfer alone already exceeds T_local
// (no amount of remote compute can catch up).
func (p Params) BreakEvenR() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	budget := p.TLocal().Seconds() - p.Theta*p.TTransfer().Seconds()
	if budget <= 0 {
		return 0, fmt.Errorf("%w: staged transfer %v alone exceeds local time %v",
			ErrNoBreakEven, units.Seconds(p.Theta*p.TTransfer().Seconds()), p.TLocal())
	}
	flop := p.ComplexityFLOPPerByte * p.UnitSize.Bytes()
	rRemote := flop / budget // required R_remote in FLOP/s
	return rRemote / p.LocalRate.PerSecond(), nil
}

// BreakEvenBandwidth returns the smallest raw link bandwidth at which
// the remote path ties local, holding α and θ fixed:
// Bw* = θ·S_unit / (α·(T_local − T_remote)).
func (p Params) BreakEvenBandwidth() (units.BitRate, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	head := p.headroom()
	if head <= 0 {
		return 0, fmt.Errorf("%w: remote compute time %v already exceeds local %v",
			ErrNoBreakEven, p.TRemote(), p.TLocal())
	}
	alpha := p.Alpha()
	if alpha <= 0 {
		return 0, fmt.Errorf("core: non-positive alpha %v", alpha)
	}
	byteRate := p.Theta * p.UnitSize.Bytes() / (alpha * head) // bytes/s
	return units.ByteRate(byteRate).BitRate(), nil
}

// SweepTheta evaluates T_pct across a θ range, returning a series for
// plotting sensitivity (DESIGN.md ablation #5).
func (p Params) SweepTheta(from, to float64, n int) (stats.Series, error) {
	return p.sweep("theta", from, to, n, func(v float64) float64 {
		return p.WithTheta(v).TPct().Seconds()
	})
}

// SweepAlpha evaluates T_pct across an α range.
func (p Params) SweepAlpha(from, to float64, n int) (stats.Series, error) {
	return p.sweep("alpha", from, to, n, func(v float64) float64 {
		return p.WithAlpha(v).TPct().Seconds()
	})
}

// SweepR evaluates T_pct across an r range.
func (p Params) SweepR(from, to float64, n int) (stats.Series, error) {
	return p.sweep("r", from, to, n, func(v float64) float64 {
		return p.WithR(v).TPct().Seconds()
	})
}

// GainGrid evaluates the gain G = T_local/T_pct over an (α, r) grid —
// the remote-wins frontier surface (G > 1 means stream to remote). Rows
// index rs, columns index alphas.
func (p Params) GainGrid(alphas, rs []float64) ([][]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(alphas) == 0 || len(rs) == 0 {
		return nil, fmt.Errorf("core: empty gain grid axes")
	}
	for _, a := range alphas {
		if a <= 0 || a > 1 {
			return nil, fmt.Errorf("core: alpha %v out of (0, 1]", a)
		}
	}
	for _, r := range rs {
		if r <= 0 {
			return nil, fmt.Errorf("core: r %v must be > 0", r)
		}
	}
	grid := make([][]float64, len(rs))
	for i, r := range rs {
		grid[i] = make([]float64, len(alphas))
		for j, a := range alphas {
			grid[i][j] = p.WithAlpha(a).WithR(r).Gain()
		}
	}
	return grid, nil
}

func (p Params) sweep(name string, from, to float64, n int, f func(float64) float64) (stats.Series, error) {
	if n < 2 {
		return stats.Series{}, fmt.Errorf("core: sweep needs >=2 points, got %d", n)
	}
	if to <= from {
		return stats.Series{}, fmt.Errorf("core: sweep range [%v,%v] is empty", from, to)
	}
	s := stats.Series{Name: name}
	for i := 0; i < n; i++ {
		v := from + (to-from)*float64(i)/float64(n-1)
		s.AddPoint(v, f(v))
	}
	return s, nil
}
