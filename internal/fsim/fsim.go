// Package fsim models the parallel file systems and data transfer nodes
// (DTNs) on the paper's file-based path: APS's "Voyager" GPFS on the
// instrument side and ALCF's "Eagle" Lustre on the HPC side (Fig. 4).
//
// The reproduction cannot measure the production file systems, so fsim
// captures the two behaviours Fig. 4 turns on:
//
//   - per-file metadata cost (create/open/close round trips), which makes
//     many-small-file workloads pay a fixed price per file, and
//   - streaming bandwidth for large sequential I/O, which makes
//     aggregated files cheap per byte.
//
// Parameter presets carry order-of-magnitude values from public GPFS /
// Lustre / Globus operational experience; EXPERIMENTS.md records how the
// resulting figure compares against the paper's.
package fsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/units"
)

// FileSystem models one parallel file system mount.
type FileSystem struct {
	// CreateLatency is the metadata cost to create+open a new file.
	CreateLatency time.Duration
	// OpenLatency is the metadata cost to open an existing file.
	OpenLatency time.Duration
	// CloseLatency is the metadata cost to close a file.
	CloseLatency time.Duration
	// WriteBandwidth is the sustained sequential write rate one writer
	// achieves.
	WriteBandwidth units.ByteRate
	// ReadBandwidth is the sustained sequential read rate one reader
	// achieves.
	ReadBandwidth units.ByteRate
}

// Errors.
var (
	ErrBadFileCount = errors.New("fsim: file count must be > 0")
	ErrBadFileSize  = errors.New("fsim: file size must be >= 0")
	ErrBadConfig    = errors.New("fsim: invalid file system configuration")
)

// Validate checks the file system parameters.
func (fs FileSystem) Validate() error {
	if fs.CreateLatency < 0 || fs.OpenLatency < 0 || fs.CloseLatency < 0 {
		return fmt.Errorf("%w: negative metadata latency", ErrBadConfig)
	}
	if fs.WriteBandwidth <= 0 || fs.ReadBandwidth <= 0 {
		return fmt.Errorf("%w: non-positive bandwidth", ErrBadConfig)
	}
	return nil
}

// VoyagerGPFS approximates the APS-side GPFS scratch system: low-ish
// metadata latency, a few GB/s per writer.
func VoyagerGPFS() FileSystem {
	return FileSystem{
		CreateLatency:  1 * time.Millisecond,
		OpenLatency:    500 * time.Microsecond,
		CloseLatency:   500 * time.Microsecond,
		WriteBandwidth: 3 * units.GBps,
		ReadBandwidth:  3 * units.GBps,
	}
}

// EagleLustre approximates the ALCF Eagle community file system: Lustre
// metadata server round trips are a bit more expensive; streaming
// bandwidth per client is high.
func EagleLustre() FileSystem {
	return FileSystem{
		CreateLatency:  2 * time.Millisecond,
		OpenLatency:    1 * time.Millisecond,
		CloseLatency:   500 * time.Microsecond,
		WriteBandwidth: 5 * units.GBps,
		ReadBandwidth:  5 * units.GBps,
	}
}

// WriteTime returns the time to create and write n files of the given
// size each, sequentially from one writer: per-file metadata plus
// payload at the write bandwidth.
func (fs FileSystem) WriteTime(n int, each units.ByteSize) (time.Duration, error) {
	if err := fs.Validate(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("%w, got %d", ErrBadFileCount, n)
	}
	if each < 0 {
		return 0, fmt.Errorf("%w, got %v", ErrBadFileSize, each)
	}
	meta := time.Duration(n) * (fs.CreateLatency + fs.CloseLatency)
	payload := units.Seconds(float64(n) * each.Bytes() / fs.WriteBandwidth.BytesPerSecond())
	return meta + payload, nil
}

// ReadTime returns the time to open and read n files of the given size
// each, sequentially from one reader.
func (fs FileSystem) ReadTime(n int, each units.ByteSize) (time.Duration, error) {
	if err := fs.Validate(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("%w, got %d", ErrBadFileCount, n)
	}
	if each < 0 {
		return 0, fmt.Errorf("%w, got %v", ErrBadFileSize, each)
	}
	meta := time.Duration(n) * (fs.OpenLatency + fs.CloseLatency)
	payload := units.Seconds(float64(n) * each.Bytes() / fs.ReadBandwidth.BytesPerSecond())
	return meta + payload, nil
}

// DTN models the data transfer node service moving files between two
// facilities (the paper's Fig. 1a staged path): a per-file setup cost —
// control-channel round trips, checksum initialization, destination file
// creation — plus wire time at the effective transfer rate.
type DTN struct {
	// PerFileSetup is the fixed per-file overhead. Operationally this is
	// what makes 1,440 small files so much slower than 1 big file at
	// equal volume; Globus-style transfers with checksums pay on the
	// order of a second per file.
	PerFileSetup time.Duration
	// Pipelining is how many file setups proceed concurrently (>=1);
	// payload bytes still share the single wire.
	Pipelining int
	// Rate is the effective wire rate (α·Bw of the model).
	Rate units.ByteRate
}

// APSToALCF approximates the Voyager→Eagle DTN path used by Fig. 4.
func APSToALCF() DTN {
	return DTN{
		PerFileSetup: 1 * time.Second,
		Pipelining:   1,
		Rate:         1.5 * units.GBps,
	}
}

// Validate checks the DTN parameters.
func (d DTN) Validate() error {
	if d.PerFileSetup < 0 {
		return fmt.Errorf("%w: negative per-file setup", ErrBadConfig)
	}
	if d.Pipelining < 1 {
		return fmt.Errorf("%w: pipelining must be >= 1", ErrBadConfig)
	}
	if d.Rate <= 0 {
		return fmt.Errorf("%w: non-positive DTN rate", ErrBadConfig)
	}
	return nil
}

// effectiveSetup returns the amortized per-file setup cost.
func (d DTN) effectiveSetup() time.Duration {
	return d.PerFileSetup / time.Duration(d.Pipelining)
}

// ThetaFor computes the model's θ coefficient (Eq. 7) implied by this
// staged path for a transfer of the given total size split into n files:
// θ = (T_IO + T_transfer)/T_transfer where T_transfer is the pure wire
// time of the payload and T_IO gathers every file-related overhead
// (local write, per-file setup, remote read metadata).
func ThetaFor(local FileSystem, d DTN, remote FileSystem, n int, total units.ByteSize) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w, got %d", ErrBadFileCount, n)
	}
	if total <= 0 {
		return 0, fmt.Errorf("%w, got %v", ErrBadFileSize, total)
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	each := units.ByteSize(total.Bytes() / float64(n))
	wire := total.Bytes() / d.Rate.BytesPerSecond()
	if wire <= 0 {
		return 0, fmt.Errorf("fsim: degenerate wire time for %v", total)
	}
	wTime, err := local.WriteTime(n, each)
	if err != nil {
		return 0, err
	}
	rTime, err := remote.ReadTime(n, each)
	if err != nil {
		return 0, err
	}
	setup := d.effectiveSetup().Seconds() * float64(n)
	tIO := wTime.Seconds() + rTime.Seconds() + setup
	return (tIO + wire) / wire, nil
}
