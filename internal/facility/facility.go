// Package facility carries the instrument-facility presets the paper's
// motivation (§2.2) and case study (§5) draw on: LHC trigger farms,
// APS tomographic reconstruction, FRIB's DELERIA streaming, and the
// LCLS-II workflows of Table 3. Each preset packages published rates and
// compute demands in the units the core model consumes.
package facility

import (
	"fmt"

	"repro/internal/units"
)

// Workflow is one facility workload, in the shape of the paper's
// Table 3: a sustained post-reduction throughput that must reach remote
// compute, and the compute demand of its analysis.
type Workflow struct {
	// Facility names the site (e.g. "LCLS-II").
	Facility string
	// Name names the workload (e.g. "Coherent Scattering (XPCS, XSVS)").
	Name string
	// Throughput is the sustained data rate after reduction.
	Throughput units.ByteRate
	// Compute is the analysis demand for one second of data.
	Compute units.FLOPS
}

// String renders a Table 3 style row.
func (w Workflow) String() string {
	return fmt.Sprintf("%s / %s: %v, %v offline analysis", w.Facility, w.Name, w.Throughput, w.Compute)
}

// LCLS2CoherentScattering is Table 3 row 1: 2 GB/s after 10x reduction,
// 34 TF offline analysis (2023 numbers from Thayer et al.).
func LCLS2CoherentScattering() Workflow {
	return Workflow{
		Facility:   "LCLS-II",
		Name:       "Coherent Scattering (XPCS, XSVS)",
		Throughput: 2 * units.GBps,
		Compute:    34 * units.TeraFLOPS,
	}
}

// LCLS2LiquidScattering is Table 3 row 2: 4 GB/s, 20 TF.
func LCLS2LiquidScattering() Workflow {
	return Workflow{
		Facility:   "LCLS-II",
		Name:       "Liquid Scattering",
		Throughput: 4 * units.GBps,
		Compute:    20 * units.TeraFLOPS,
	}
}

// LCLS2Workflows returns the paper's Table 3 in order.
func LCLS2Workflows() []Workflow {
	return []Workflow{LCLS2CoherentScattering(), LCLS2LiquidScattering()}
}

// Instrument describes a data-producing facility from §2.2.
type Instrument struct {
	// Name identifies the facility.
	Name string
	// RawRate is the peak raw data production.
	RawRate units.ByteRate
	// ReducedRate is the post-reduction rate that must move.
	ReducedRate units.ByteRate
	// Link is the WAN capacity toward remote compute.
	Link units.BitRate
	// Notes cites the numbers' provenance.
	Notes string
}

// LHC models the §2.2.1 trigger chain: 40 TB/s raw collisions reduced to
// ~1 GB/s for permanent storage.
func LHC() Instrument {
	return Instrument{
		Name:        "LHC (ATLAS/CMS)",
		RawRate:     40 * units.TBps,
		ReducedRate: 1 * units.GBps,
		Link:        100 * units.Gbps,
		Notes:       "40 MHz collisions; two-tier triggers reduce 40 TB/s to ~1 GB/s",
	}
}

// APS models §2.2.3: tens of GB/s from tomography beamlines streamed to
// ALCF; the Fig. 4 scan parameters come from this facility.
func APS() Instrument {
	return Instrument{
		Name:        "APS",
		RawRate:     60 * units.GBps,
		ReducedRate: 10 * units.GBps,
		Link:        100 * units.Gbps,
		Notes:       "480 Gb/s detectors; 2048x2048 16-bit projections; streams to ALCF for reconstruction",
	}
}

// FRIB models §2.2.4 (DELERIA): 40 Gbps gamma-ray detector streaming
// (targeting 100 Gbps) with a 240 MB/s post-decomposition event stream.
func FRIB() Instrument {
	return Instrument{
		Name:        "FRIB (DELERIA)",
		RawRate:     (40 * units.Gbps).ByteRate(),
		ReducedRate: 240 * units.MBps,
		Link:        40 * units.Gbps,
		Notes:       "GRETA signal decomposition over ESnet; 97.5% reduction preserving physics",
	}
}

// DELERIAProcesses is the paper's figure for parallel analysis processes
// consuming the FRIB stream.
const DELERIAProcesses = 100

// DELERIAPerProcessRate is the paper's ~2 MB/s per compute process.
func DELERIAPerProcessRate() units.ByteRate {
	return FRIB().ReducedRate / DELERIAProcesses * units.ByteRate(1)
}
