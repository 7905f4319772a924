// Package tcpsim simulates TCP flows sharing a single bottleneck link,
// replacing the paper's FABRIC testbed (25 Gbps NIC, 16 ms RTT, iperf3
// load) with a deterministic, seedable model.
//
// The simulator advances in rounds of one RTT (base RTT plus current
// queueing delay) and models, per flow: slow start, congestion
// avoidance, proportional loss on drop-tail buffer overflow with
// randomized per-flow severity, multiplicative-decrease recovery,
// retransmission accounting, and retransmission timeouts when a flow
// loses essentially its whole window. These are exactly the dynamics the
// paper's worst-case argument rests on: under bursty overload the
// completion-time distribution grows a long tail that average-throughput
// models never see.
//
// Fidelity notes (also in DESIGN.md): time resolution is one RTT
// (16 ms at the defaults), so completion times carry O(RTT) error —
// irrelevant at the 0.2 s .. 10 s scales of the reproduced figures.
package tcpsim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// Config describes the bottleneck and TCP parameters.
// The zero value is unusable; use DefaultConfig as a base.
type Config struct {
	// Capacity is the bottleneck link rate (paper: 25 Gbps).
	Capacity units.BitRate
	// BaseRTT is the uncongested round-trip time (paper: 16 ms).
	BaseRTT time.Duration
	// MSS is the maximum segment size (9000-byte jumbo MTU minus
	// IP/TCP headers).
	MSS units.ByteSize
	// Buffer is the drop-tail queue size at the bottleneck. Zero selects
	// half a bandwidth-delay product — a shallow-buffered switch, which
	// reproduces the paper's Fig. 2a regime boundaries (2–3 s worst-case
	// transfers near 90 % utilization, >5 s past saturation).
	Buffer units.ByteSize
	// InitCwndSegments is the initial congestion window in segments
	// (RFC 6928's 10 by default).
	InitCwndSegments int
	// RTO is the retransmission-timeout penalty applied when a flow
	// loses its whole window.
	RTO time.Duration
	// Seed drives the per-flow loss-severity randomization.
	Seed int64
	// MaxTime aborts simulations that fail to drain (safety horizon,
	// seconds). Zero selects 3600 s.
	MaxTime float64
	// Cross configures background cross-traffic sharing the bottleneck
	// (zero value: none).
	Cross CrossTraffic
	// RecordQueue enables per-round queue-depth recording in the result.
	RecordQueue bool
	// CC selects the congestion-control variant (default Reno).
	CC CongestionControl
}

// CongestionControl selects the window-growth algorithm.
type CongestionControl int

// Supported congestion controllers.
const (
	// Reno: classic AIMD — one MSS per RTT in congestion avoidance,
	// halve on loss.
	Reno CongestionControl = iota
	// Cubic: RFC 8312-style cubic window growth around the last loss
	// point — the default in Linux and what production DTNs actually
	// run. Recovers toward the pre-loss window much faster than Reno on
	// high-BDP paths.
	Cubic
)

// String names the controller.
func (cc CongestionControl) String() string {
	switch cc {
	case Reno:
		return "reno"
	case Cubic:
		return "cubic"
	default:
		return fmt.Sprintf("CongestionControl(%d)", int(cc))
	}
}

// ParseCongestionControl maps a controller name ("reno", "cubic") back
// to its constant — the inverse of String, for CLI flags and config
// files.
func ParseCongestionControl(name string) (CongestionControl, error) {
	switch name {
	case "reno":
		return Reno, nil
	case "cubic":
		return Cubic, nil
	default:
		return 0, fmt.Errorf("tcpsim: unknown congestion control %q (want reno or cubic)", name)
	}
}

// DefaultConfig mirrors the paper's Table 1/2 testbed.
func DefaultConfig() Config {
	return Config{
		Capacity:         25 * units.Gbps,
		BaseRTT:          16 * time.Millisecond,
		MSS:              8948 * units.Byte,
		InitCwndSegments: 10,
		RTO:              200 * time.Millisecond,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	// The float fields must also be finite: a NaN capacity used to pass
	// (NaN <= 0 is false) and then stall the round loop forever, and
	// finite operands are what make the loop's builtin min and max agree
	// with math.Min and math.Max on every accepted config.
	if !(c.Capacity > 0) || math.IsInf(float64(c.Capacity), 1) {
		return fmt.Errorf("tcpsim: capacity must be finite and > 0, got %v", c.Capacity)
	}
	if c.BaseRTT <= 0 {
		return fmt.Errorf("tcpsim: base RTT must be > 0, got %v", c.BaseRTT)
	}
	if !(c.MSS > 0) || math.IsInf(float64(c.MSS), 1) {
		return fmt.Errorf("tcpsim: MSS must be finite and > 0, got %v", c.MSS)
	}
	if c.InitCwndSegments <= 0 {
		return fmt.Errorf("tcpsim: initial cwnd must be > 0 segments, got %d", c.InitCwndSegments)
	}
	if c.RTO <= 0 {
		return fmt.Errorf("tcpsim: RTO must be > 0, got %v", c.RTO)
	}
	if !(c.Buffer >= 0) || math.IsInf(float64(c.Buffer), 1) {
		return fmt.Errorf("tcpsim: buffer must be finite and >= 0, got %v", c.Buffer)
	}
	if c.CC != Reno && c.CC != Cubic {
		return fmt.Errorf("tcpsim: unknown congestion control %d", int(c.CC))
	}
	return c.Cross.Validate()
}

// BDP returns the bandwidth-delay product in bytes.
func (c Config) BDP() float64 {
	return c.Capacity.ByteRate().BytesPerSecond() * c.BaseRTT.Seconds()
}

// bufferBytes returns the effective drop-tail buffer.
func (c Config) bufferBytes() float64 {
	if c.Buffer > 0 {
		return c.Buffer.Bytes()
	}
	return c.BDP() / 2
}

// maxTime returns the effective safety horizon.
func (c Config) maxTime() float64 {
	if c.MaxTime > 0 {
		return c.MaxTime
	}
	return 3600
}

// FlowSpec describes one TCP flow to simulate.
type FlowSpec struct {
	// ID tags the flow in results (caller-chosen, need not be unique —
	// workload uses client*1000+flow).
	ID int
	// Arrival is the flow start time in seconds.
	Arrival float64
	// Size is the payload to move.
	Size units.ByteSize
}

// FlowResult reports one finished flow.
type FlowResult struct {
	ID          int
	Arrival     float64 // spawn time (s)
	End         float64 // completion time (s)
	Bytes       float64
	Retransmits int64 // segments retransmitted after loss
}

// Duration returns the flow completion time in seconds.
func (f FlowResult) Duration() float64 { return f.End - f.Arrival }

// Result is a completed simulation.
type Result struct {
	Flows    []FlowResult
	Counters *stats.LinkCounters // cumulative served bytes per round
	// DroppedBytes is the total payload dropped at the bottleneck.
	DroppedBytes float64
	// QueueDepth traces (time, backlog bytes) per round when
	// Config.RecordQueue is set.
	QueueDepth stats.Series
}

// MeanUtilization returns link utilization over the full run.
func (r *Result) MeanUtilization(cfg Config) (float64, error) {
	return r.Counters.MeanUtilization(cfg.Capacity.ByteRate().BytesPerSecond())
}

// Errors.
var (
	ErrNoFlows     = errors.New("tcpsim: no flows to simulate")
	ErrHorizon     = errors.New("tcpsim: simulation exceeded MaxTime horizon")
	ErrBadFlowSpec = errors.New("tcpsim: invalid flow spec")
)

// CUBIC constants: growth scale C and multiplicative decrease beta.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Run simulates the flows over the shared bottleneck and returns
// per-flow completion times plus link counters. Each call constructs a
// fresh Engine, so the returned Result is exclusively the caller's; hot
// paths running many simulations should hold a reusable Engine instead,
// whose steady-state rounds allocate nothing.
func Run(cfg Config, specs []FlowSpec) (*Result, error) {
	return NewEngine().Run(cfg, specs)
}

// SoloClientFCT simulates a single client moving size bytes over nFlows
// parallel flows on an otherwise idle link, returning the client
// completion time (the max over its flows). This models the paper's
// Fig. 2b "scheduled, bandwidth-reserved" regime and is also used for
// cross-validation against the fluid model.
func SoloClientFCT(cfg Config, size units.ByteSize, nFlows int) (time.Duration, error) {
	return NewEngine().SoloClientFCT(cfg, size, nFlows)
}
