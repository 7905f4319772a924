package tcpsim

// Multi-hop path topologies: instead of a single bottleneck link, a
// transfer can traverse an edge uplink, a WAN segment, and a facility
// ingress in sequence (George et al.'s edge→WAN→HPC chains; the INRIA
// in-network processing line places operators along exactly this path).
// The simulator itself still models one drop-tail bottleneck — a Path
// composes its hops down to the effective bottleneck Config: the hop
// with the least residual capacity sets capacity/buffer/cross-traffic,
// and latency accumulates across hops. A 1-hop Path therefore reduces
// exactly to that hop's link, preserving every single-link result
// bit-for-bit.

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// HopRole identifies a hop's position in the edge→WAN→facility chain.
type HopRole int

// The supported hop roles, in mandatory path order.
const (
	// HopEdge is the instrument-side uplink out of the edge site.
	HopEdge HopRole = iota
	// HopWAN is the wide-area segment between edge and facility.
	HopWAN
	// HopIngress is the facility ingress (border + DTN fan-in).
	HopIngress
)

// String names the role as it appears in flags and fingerprints.
func (r HopRole) String() string {
	switch r {
	case HopEdge:
		return "edge"
	case HopWAN:
		return "wan"
	case HopIngress:
		return "ingress"
	default:
		return fmt.Sprintf("HopRole(%d)", int(r))
	}
}

// ParseHopRole parses a role name as rendered by HopRole.String.
func ParseHopRole(s string) (HopRole, error) {
	switch s {
	case "edge":
		return HopEdge, nil
	case "wan":
		return HopWAN, nil
	case "ingress":
		return HopIngress, nil
	default:
		return 0, fmt.Errorf("tcpsim: unknown hop role %q (want edge, wan, or ingress)", s)
	}
}

// Hop is one link of a multi-hop path.
type Hop struct {
	// Role is the hop's position in the chain.
	Role HopRole
	// Capacity is the hop's raw link rate.
	Capacity units.BitRate
	// RTT is the hop's contribution to the path round-trip time.
	RTT time.Duration
	// Buffer is the hop's drop-tail queue; 0 selects tcpsim's default
	// (half a bandwidth-delay product at the composed path RTT).
	Buffer units.ByteSize
	// CrossFraction is the share of this hop's capacity consumed by
	// background cross-traffic.
	CrossFraction float64
}

// residual is the capacity left for the transfer after cross-traffic.
func (h Hop) residual() float64 {
	return float64(h.Capacity) * (1 - h.CrossFraction)
}

// Path is an ordered chain of 1–3 hops. A nil Path means "single
// bottleneck link described directly by Config" — the pre-path API.
type Path []Hop

// Validate checks structural soundness: 1–3 hops in strict role order
// (edge before WAN before ingress, no duplicates), each with positive
// capacity and RTT, non-negative buffer, and cross fraction in [0, 1).
// A nil/empty Path is valid (no path semantics requested).
func (p Path) Validate() error {
	if len(p) == 0 {
		return nil
	}
	if len(p) > 3 {
		return fmt.Errorf("tcpsim: path has %d hops, want 1-3", len(p))
	}
	for i, h := range p {
		if h.Role < HopEdge || h.Role > HopIngress {
			return fmt.Errorf("tcpsim: path hop %d: unknown role %d", i, int(h.Role))
		}
		if i > 0 && h.Role <= p[i-1].Role {
			return fmt.Errorf("tcpsim: path hop %d: role %v out of order after %v (want edge, wan, ingress)",
				i, h.Role, p[i-1].Role)
		}
		if h.Capacity <= 0 {
			return fmt.Errorf("tcpsim: path hop %v: capacity must be positive", h.Role)
		}
		if h.RTT <= 0 {
			return fmt.Errorf("tcpsim: path hop %v: RTT must be positive", h.Role)
		}
		if h.Buffer < 0 {
			return fmt.Errorf("tcpsim: path hop %v: buffer must be non-negative", h.Role)
		}
		if !(h.CrossFraction >= 0 && h.CrossFraction < 1) { // NaN too
			return fmt.Errorf("tcpsim: path hop %v: cross fraction %g outside [0, 1)", h.Role, h.CrossFraction)
		}
	}
	return nil
}

// Hop returns the hop with the given role and whether the path has one.
func (p Path) Hop(role HopRole) (Hop, bool) {
	for _, h := range p {
		if h.Role == role {
			return h, true
		}
	}
	return Hop{}, false
}

// WithAxes returns a copy of the path with one grid point's hop-axis
// overrides applied: the edge hop's capacity, the WAN hop's RTT, and
// the ingress hop's buffer. A capacity or RTT of 0 means "not swept"
// and leaves that hop alone; the buffer override is unconditional,
// because a buffer of 0 is itself a value (the half-BDP default).
func (p Path) WithAxes(edgeCap units.BitRate, wanRTT time.Duration, ingressBuf units.ByteSize) Path {
	out := append(Path(nil), p...)
	for i := range out {
		switch h := &out[i]; {
		case h.Role == HopEdge && edgeCap > 0:
			h.Capacity = edgeCap
		case h.Role == HopWAN && wanRTT > 0:
			h.RTT = wanRTT
		case h.Role == HopIngress:
			h.Buffer = ingressBuf
		}
	}
	return out
}

// Bottleneck returns the hop with the least residual capacity (raw
// capacity minus the share its cross-traffic consumes); the first such
// hop wins ties. It panics on an empty path — callers gate on len(p).
func (p Path) Bottleneck() Hop {
	b := p[0]
	for _, h := range p[1:] {
		if h.residual() < b.residual() {
			b = h
		}
	}
	return b
}

// Effective composes the path down to the single-bottleneck Config the
// simulator runs: the base Config's endpoint parameters (MSS, initial
// window, RTO, seed, CC, cross-traffic wave shape, ...) are kept, the
// path RTT is the sum of hop RTTs, and capacity, buffer, and
// cross-traffic fraction come from the bottleneck hop. A 1-hop path
// yields exactly that hop's link, so single-hop grids are bit-identical
// to the equivalent flat Config. An empty path returns base unchanged.
func (p Path) Effective(base Config) Config {
	if len(p) == 0 {
		return base
	}
	var rtt time.Duration
	for _, h := range p {
		rtt += h.RTT
	}
	b := p.Bottleneck()
	base.Capacity = b.Capacity
	base.BaseRTT = rtt
	base.Buffer = b.Buffer
	base.CrossFraction = b.CrossFraction
	return base
}
