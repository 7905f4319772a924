// Package reduction models the online data-reduction pipelines that make
// the paper's facilities viable at all (§2.2), with the LHC trigger
// chain cutting 40 TB/s to ~1 GB/s as its preset. A pipeline is a
// sequence of stages, each with a reduction factor, a compute cost per
// input byte and a decision latency; the package answers what comes out
// the far end (rate, compute demand, latency) so the core decision model
// can be applied to any stage boundary.
package reduction

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/units"
)

// Stage is one reduction step.
type Stage struct {
	// Name labels the stage ("L1 trigger", "HLT", ...).
	Name string
	// Factor is the data reduction: output rate = input rate / Factor.
	// Must be >= 1 (stages do not amplify data).
	Factor float64
	// ComplexityFLOPPerByte is the compute spent per *input* byte.
	ComplexityFLOPPerByte float64
	// Latency is the per-item decision latency the stage adds.
	Latency time.Duration
}

// Validate checks the stage.
func (s Stage) Validate() error {
	if s.Factor < 1 {
		return fmt.Errorf("reduction: stage %q factor %v must be >= 1", s.Name, s.Factor)
	}
	if s.ComplexityFLOPPerByte < 0 {
		return fmt.Errorf("reduction: stage %q negative complexity", s.Name)
	}
	if s.Latency < 0 {
		return fmt.Errorf("reduction: stage %q negative latency", s.Name)
	}
	return nil
}

// Pipeline is an ordered chain of stages.
type Pipeline struct {
	Name   string
	Stages []Stage
}

// ErrEmptyPipeline is returned for a pipeline without stages.
var ErrEmptyPipeline = errors.New("reduction: pipeline has no stages")

// Validate checks every stage.
func (p Pipeline) Validate() error {
	if len(p.Stages) == 0 {
		return ErrEmptyPipeline
	}
	for _, s := range p.Stages {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalReduction returns the product of stage factors.
func (p Pipeline) TotalReduction() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	f := 1.0
	for _, s := range p.Stages {
		f *= s.Factor
	}
	return f, nil
}

// ComputeDemand returns the total sustained compute the pipeline needs
// at the given input rate (each stage sees the previous stage's output).
func (p Pipeline) ComputeDemand(in units.ByteRate) (units.FLOPS, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if in < 0 {
		return 0, fmt.Errorf("reduction: negative input rate %v", in)
	}
	rate := in
	total := 0.0
	for _, s := range p.Stages {
		total += s.ComplexityFLOPPerByte * rate.BytesPerSecond()
		rate = units.ByteRate(float64(rate) / s.Factor)
	}
	return units.FLOPS(total), nil
}

// Latency returns the summed per-item decision latency of the chain.
func (p Pipeline) Latency() (time.Duration, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	var total time.Duration
	for _, s := range p.Stages {
		total += s.Latency
	}
	return total, nil
}

// StageRates returns the rate entering each stage plus the final output,
// for reporting (len = stages + 1).
func (p Pipeline) StageRates(in units.ByteRate) ([]units.ByteRate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]units.ByteRate, 0, len(p.Stages)+1)
	rate := in
	for _, s := range p.Stages {
		out = append(out, rate)
		rate = units.ByteRate(float64(rate) / s.Factor)
	}
	out = append(out, rate)
	return out, nil
}

// ATLASTrigger approximates the §2.2.1 two-tier chain: a hardware L1
// trigger cutting 40 MHz to 100 kHz within ~4 µs, then a software HLT
// cutting to ~1 kHz. Byte rates follow the paper: 40 TB/s raw, ~1 GB/s
// to storage, so the two stages share a 40,000x total reduction
// (400x L1, 100x HLT).
func ATLASTrigger() Pipeline {
	return Pipeline{
		Name: "ATLAS/CMS two-tier trigger",
		Stages: []Stage{
			{
				Name:                  "L1 hardware trigger",
				Factor:                400,
				ComplexityFLOPPerByte: 0.5, // FPGA-class per-byte work
				Latency:               4 * time.Microsecond,
			},
			{
				Name:                  "High-Level Trigger",
				Factor:                100,
				ComplexityFLOPPerByte: 500, // software reconstruction
				Latency:               200 * time.Millisecond,
			},
		},
	}
}
