package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// Params holds the model parameters of paper §3.1.
//
// Complexity follows the paper's definition (FLOP per GB of input); use
// ComplexityFLOPPerGB to build it from the paper's tables, or set the
// field directly in FLOP/byte.
type Params struct {
	// UnitSize is S_unit: the size of one data unit (a frame batch, a
	// scan, one second of detector output, ...).
	UnitSize units.ByteSize
	// ComplexityFLOPPerByte is C expressed per byte: FLOP required to
	// process one byte of input.
	ComplexityFLOPPerByte float64
	// LocalRate is R_local, the compute rate available at the instrument.
	LocalRate units.FLOPS
	// RemoteRate is R_remote, the compute rate available at the HPC
	// facility.
	RemoteRate units.FLOPS
	// Bandwidth is Bw, the raw capacity of the instrument-to-HPC link.
	Bandwidth units.BitRate
	// TransferRate is R_transfer, the effective application-level
	// transfer rate actually achieved on that link.
	TransferRate units.ByteRate
	// Theta is θ, the file-I/O overhead coefficient (Eq. 7).
	// θ = 1 models pure streaming; θ > 1 models file staging overhead.
	Theta float64
}

// ComplexityFLOPPerGB converts the paper's C (FLOP/GB) to the per-byte
// form Params carries.
func ComplexityFLOPPerGB(c float64) float64 { return c / 1e9 }

// Errors returned by Params.Validate.
var (
	ErrNonPositiveSize      = errors.New("core: unit size must be > 0")
	ErrNonPositiveCompute   = errors.New("core: compute rates must be > 0")
	ErrNonPositiveBandwidth = errors.New("core: bandwidth must be > 0")
	ErrNonPositiveTransfer  = errors.New("core: transfer rate must be > 0")
	ErrBadTheta             = errors.New("core: theta must be >= 1")
	ErrNegativeComplexity   = errors.New("core: complexity must be >= 0")
	ErrTransferExceedsLink  = errors.New("core: transfer rate exceeds link bandwidth (alpha > 1)")
	ErrTimeOutOfRange       = errors.New("core: model time exceeds time.Duration's range")
)

// Validate checks the parameters for physical consistency.
func (p Params) Validate() error {
	if p.UnitSize <= 0 {
		return fmt.Errorf("%w (got %v)", ErrNonPositiveSize, p.UnitSize)
	}
	if p.ComplexityFLOPPerByte < 0 {
		return fmt.Errorf("%w (got %v)", ErrNegativeComplexity, p.ComplexityFLOPPerByte)
	}
	if p.LocalRate <= 0 || p.RemoteRate <= 0 {
		return fmt.Errorf("%w (local %v, remote %v)", ErrNonPositiveCompute, p.LocalRate, p.RemoteRate)
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("%w (got %v)", ErrNonPositiveBandwidth, p.Bandwidth)
	}
	if p.TransferRate <= 0 {
		return fmt.Errorf("%w (got %v)", ErrNonPositiveTransfer, p.TransferRate)
	}
	if p.Theta < 1 {
		return fmt.Errorf("%w (got %v)", ErrBadTheta, p.Theta)
	}
	if float64(p.TransferRate) > float64(p.Bandwidth.ByteRate())*(1+1e-9) {
		return fmt.Errorf("%w (%v > %v)", ErrTransferExceedsLink, p.TransferRate, p.Bandwidth.ByteRate())
	}
	// Past time.Duration's range both times would saturate at the same
	// 2562047h and every comparison between them would be meaningless.
	flop := p.ComplexityFLOPPerByte * p.UnitSize.Bytes()
	if tLocal := flop / p.LocalRate.PerSecond(); !fitsDuration(tLocal) {
		return fmt.Errorf("%w: T_local = %.3g s", ErrTimeOutOfRange, tLocal)
	}
	if tPct := p.Theta*p.UnitSize.Bytes()/p.TransferRate.BytesPerSecond() + flop/p.RemoteRate.PerSecond(); !fitsDuration(tPct) {
		return fmt.Errorf("%w: θ·T_transfer + T_remote = %.3g s", ErrTimeOutOfRange, tPct)
	}
	return nil
}

// fitsDuration reports whether sec seconds is a time.Duration that
// units.Seconds need not saturate (false for NaN).
func fitsDuration(sec float64) bool { return sec*1e9 < math.MaxInt64 }

// Alpha returns α = R_transfer / Bw, the transfer efficiency coefficient.
func (p Params) Alpha() float64 {
	bw := p.Bandwidth.ByteRate()
	if bw <= 0 {
		return 0
	}
	return float64(p.TransferRate) / float64(bw)
}

// R returns r = R_remote / R_local, the remote processing coefficient.
func (p Params) R() float64 {
	if p.LocalRate <= 0 {
		return 0
	}
	return float64(p.RemoteRate) / float64(p.LocalRate)
}

// WithAlpha returns a copy of p with the transfer rate set so that
// Alpha() == alpha on the existing bandwidth.
func (p Params) WithAlpha(alpha float64) Params {
	p.TransferRate = units.ByteRate(alpha * float64(p.Bandwidth.ByteRate()))
	return p
}

// WithR returns a copy of p with the remote rate set so that R() == r on
// the existing local rate.
func (p Params) WithR(r float64) Params {
	p.RemoteRate = units.FLOPS(r * float64(p.LocalRate))
	return p
}

// WithTheta returns a copy of p with θ replaced.
func (p Params) WithTheta(theta float64) Params {
	p.Theta = theta
	return p
}

// String summarizes the parameters compactly.
func (p Params) String() string {
	return fmt.Sprintf("S=%v C=%.3g FLOP/B Rl=%v Rr=%v Bw=%v Rt=%v alpha=%.3f r=%.3f theta=%.3f",
		p.UnitSize, p.ComplexityFLOPPerByte, p.LocalRate, p.RemoteRate,
		p.Bandwidth, p.TransferRate, p.Alpha(), p.R(), p.Theta)
}
