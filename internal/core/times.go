package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/units"
)

// TLocal returns the local processing completion time (Eq. 3):
// T_local = C·S_unit / R_local.
func (p Params) TLocal() time.Duration {
	if p.LocalRate <= 0 {
		return time.Duration(math.MaxInt64)
	}
	flop := p.ComplexityFLOPPerByte * p.UnitSize.Bytes()
	return units.Seconds(flop / p.LocalRate.PerSecond())
}

// TTransfer returns the wire transfer time (Eq. 5):
// T_transfer = S_unit / R_transfer = S_unit / (α·Bw).
func (p Params) TTransfer() time.Duration {
	if p.TransferRate <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return units.Seconds(p.UnitSize.Bytes() / p.TransferRate.BytesPerSecond())
}

// TRemote returns the remote processing time (Eq. 6):
// T_remote = C·S_unit / R_remote = C·S_unit / (r·R_local).
func (p Params) TRemote() time.Duration {
	if p.RemoteRate <= 0 {
		return time.Duration(math.MaxInt64)
	}
	flop := p.ComplexityFLOPPerByte * p.UnitSize.Bytes()
	return units.Seconds(flop / p.RemoteRate.PerSecond())
}

// TIO returns the file-I/O overhead time implied by θ (Eq. 7–8):
// T_IO = (θ − 1)·T_transfer.
func (p Params) TIO() time.Duration {
	return units.Seconds((p.Theta - 1) * p.TTransfer().Seconds())
}

// TPct returns the total processing completion time of the remote path
// (Eq. 9–10): T_pct = θ·T_transfer + T_remote.
func (p Params) TPct() time.Duration {
	return units.Seconds(p.Theta*p.TTransfer().Seconds() + p.TRemote().Seconds())
}

// Breakdown itemizes the remote-path completion time.
type Breakdown struct {
	TTransfer time.Duration // wire time S/(α·Bw)
	TIO       time.Duration // staging overhead (θ−1)·T_transfer
	TRemote   time.Duration // remote compute time
	TPct      time.Duration // total = T_transfer + T_IO + T_remote
	TLocal    time.Duration // local alternative, for comparison
}

// Breakdown computes all model times at once.
func (p Params) Breakdown() Breakdown {
	return Breakdown{
		TTransfer: p.TTransfer(),
		TIO:       p.TIO(),
		TRemote:   p.TRemote(),
		TPct:      p.TPct(),
		TLocal:    p.TLocal(),
	}
}

// String renders the breakdown for reports.
func (b Breakdown) String() string {
	return fmt.Sprintf("transfer=%v io=%v remote=%v total(pct)=%v local=%v",
		b.TTransfer.Round(time.Microsecond), b.TIO.Round(time.Microsecond),
		b.TRemote.Round(time.Microsecond), b.TPct.Round(time.Microsecond),
		b.TLocal.Round(time.Microsecond))
}

// Gain returns the speedup of remote processing over local processing,
// G = T_local / T_pct. G > 1 means the remote path wins. The paper's
// conclusion frames the decision as "a gain function based on three core
// parameters: α, r, and θ"; in closed form
//
//	G = 1 / (θ/(α·κ) + 1/r),  κ = C·Bw/R_local
//
// where κ is the dimensionless compute-to-transfer ratio.
func (p Params) Gain() float64 {
	tl := p.TLocal().Seconds()
	tp := p.TPct().Seconds()
	if tp <= 0 {
		if tl <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return tl / tp
}

// Kappa returns κ = C·Bw/R_local, the compute-to-transfer ratio used by
// the closed-form gain. Large κ means the workload is compute-heavy
// relative to the link; small κ means it is transfer-bound.
func (p Params) Kappa() float64 {
	if p.LocalRate <= 0 {
		return 0
	}
	return p.ComplexityFLOPPerByte * p.Bandwidth.ByteRate().BytesPerSecond() / p.LocalRate.PerSecond()
}

// GainClosedForm evaluates G = 1/(θ/(α·κ) + 1/r) directly from the
// coefficients. It must agree with Gain(); both are exposed so tests can
// cross-check the algebra of Eq. 10.
func (p Params) GainClosedForm() float64 {
	alpha, r, kappa := p.Alpha(), p.R(), p.Kappa()
	if alpha <= 0 || r <= 0 {
		return 0
	}
	den := p.Theta/(alpha*kappa) + 1/r
	if den <= 0 {
		return math.Inf(1)
	}
	return 1 / den
}

// Choice is the outcome of the local-vs-remote decision.
type Choice int

// Decision outcomes.
const (
	// ChooseLocal: local processing completes sooner (or remote is
	// infeasible while local meets the deadline).
	ChooseLocal Choice = iota
	// ChooseRemote: the remote path completes sooner and is feasible.
	ChooseRemote
	// ChooseInfeasible: neither path meets the requested deadline, or the
	// sustained data rate exceeds what the link can carry.
	ChooseInfeasible
)

// String names the choice.
func (c Choice) String() string {
	switch c {
	case ChooseLocal:
		return "local"
	case ChooseRemote:
		return "remote"
	case ChooseInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Choice(%d)", int(c))
	}
}

// Decision is the full result of Decide.
type Decision struct {
	Choice Choice
	// Breakdown carries the model times backing the choice.
	Breakdown Breakdown
	// Gain is T_local / T_pct.
	Gain float64
	// SustainedOK reports whether the steady-state generation rate fits
	// within the effective transfer rate α·Bw (always true when no
	// generation rate was supplied).
	SustainedOK bool
	// Reason is a one-line human-readable justification.
	Reason string
}

// DecideOpts carries the optional operational constraints of a decision.
type DecideOpts struct {
	// GenerationRate is the sustained data production rate of the
	// instrument; zero means "not continuous / don't check".
	GenerationRate units.ByteRate
	// Deadline is the completion-time budget (e.g. a latency tier);
	// zero means no deadline.
	Deadline time.Duration
}

// ErrInvalidParams wraps validation failures from Decide.
var ErrInvalidParams = errors.New("core: invalid parameters")

// Decide runs the paper's decision procedure: validate the parameters,
// check sustained-rate feasibility (§5's "4 GB/s would be unfeasible
// because it is higher than our link capacity"), compare T_local with
// T_pct, and check the deadline tier for the winning path.
func Decide(p Params, opts DecideOpts) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	d := Decision{
		Breakdown:   p.Breakdown(),
		Gain:        p.Gain(),
		SustainedOK: true,
	}

	// Sustained feasibility: the instrument must not outpace the
	// effective transfer rate, or the remote path falls behind without
	// bound.
	if opts.GenerationRate > 0 && float64(opts.GenerationRate) > float64(p.TransferRate) {
		d.SustainedOK = false
	}

	remoteWins := d.Breakdown.TPct < d.Breakdown.TLocal
	switch {
	case !d.SustainedOK:
		// Remote is off the table; local wins if it meets the deadline.
		if opts.Deadline > 0 && d.Breakdown.TLocal > opts.Deadline {
			d.Choice = ChooseInfeasible
			d.Reason = fmt.Sprintf("generation rate %v exceeds effective transfer rate %v and local time %v misses deadline %v",
				opts.GenerationRate, p.TransferRate, d.Breakdown.TLocal, opts.Deadline)
		} else {
			d.Choice = ChooseLocal
			d.Reason = fmt.Sprintf("generation rate %v exceeds effective transfer rate %v; remote streaming infeasible",
				opts.GenerationRate, p.TransferRate)
		}
	case remoteWins:
		if opts.Deadline > 0 && d.Breakdown.TPct > opts.Deadline {
			if d.Breakdown.TLocal <= opts.Deadline {
				d.Choice = ChooseLocal
				d.Reason = fmt.Sprintf("remote is faster (gain %.2f) but T_pct %v misses deadline %v; local %v meets it",
					d.Gain, d.Breakdown.TPct, opts.Deadline, d.Breakdown.TLocal)
			} else {
				d.Choice = ChooseInfeasible
				d.Reason = fmt.Sprintf("neither T_pct %v nor T_local %v meets deadline %v",
					d.Breakdown.TPct, d.Breakdown.TLocal, opts.Deadline)
			}
		} else {
			d.Choice = ChooseRemote
			d.Reason = fmt.Sprintf("T_pct %v < T_local %v (gain %.2fx)",
				d.Breakdown.TPct, d.Breakdown.TLocal, d.Gain)
		}
	default:
		if opts.Deadline > 0 && d.Breakdown.TLocal > opts.Deadline {
			if d.Breakdown.TPct <= opts.Deadline {
				// Local is nominally faster but misses the deadline while
				// remote meets it — cannot happen when TPct >= TLocal, kept
				// for completeness.
				d.Choice = ChooseRemote
				d.Reason = fmt.Sprintf("T_pct %v meets deadline %v, local %v does not",
					d.Breakdown.TPct, opts.Deadline, d.Breakdown.TLocal)
			} else {
				d.Choice = ChooseInfeasible
				d.Reason = fmt.Sprintf("neither T_local %v nor T_pct %v meets deadline %v",
					d.Breakdown.TLocal, d.Breakdown.TPct, opts.Deadline)
			}
		} else {
			d.Choice = ChooseLocal
			d.Reason = fmt.Sprintf("T_local %v <= T_pct %v (gain %.2fx)",
				d.Breakdown.TLocal, d.Breakdown.TPct, d.Gain)
		}
	}
	return d, nil
}
