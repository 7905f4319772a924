package core

// Placement decisions over multi-hop paths. The paper's binary verdict
// — stream into remote compute or store-and-process locally — assumes
// one bottleneck link. On an edge→WAN→facility chain the question
// generalizes to WHERE to process ("From Edge to HPC" and the INRIA
// in-network processing line): stream everything end-to-end, run a
// volume-reducing prefilter at the edge and stream the residue, or
// give up on streaming and stage (store-and-forward). DecidePlacement
// keeps the §3 model as the primitive: it asks Decide once for the
// full stream, and — when that fails and an edge prefilter is on the
// table — once more with the prefiltered volume, attributing
// per-hop residual rates and feasibility along the way.

import (
	"fmt"

	"repro/internal/units"
)

// Placement is the outcome of the where-to-process decision.
type Placement int

// Placement outcomes.
const (
	// PlaceStreamDirect: stream raw data end-to-end into remote compute
	// (the paper's ChooseRemote, lifted onto the path).
	PlaceStreamDirect Placement = iota
	// PlaceEdgePrefilter: full-rate streaming loses, but a
	// volume-reducing operator at the edge makes the residue stream
	// win — process partially at the edge, stream the rest.
	PlaceEdgePrefilter
	// PlaceStoreForward: no streaming configuration wins; store at the
	// instrument and forward/stage later (covers the paper's
	// ChooseLocal and ChooseInfeasible).
	PlaceStoreForward
)

// String names the placement as reported by CLIs and the service.
func (p Placement) String() string {
	switch p {
	case PlaceStreamDirect:
		return "stream-direct"
	case PlaceEdgePrefilter:
		return "edge-prefilter"
	case PlaceStoreForward:
		return "store-forward"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// HopParams describes one hop of the path as the model sees it. core
// stays topology-agnostic: callers (scenario) lower their hop chain to
// this, in path order, with whatever naming they use.
type HopParams struct {
	// Name identifies the hop ("edge", "wan", "ingress").
	Name string
	// Capacity is the hop's raw link rate.
	Capacity units.BitRate
	// CrossFraction is the share of capacity lost to cross-traffic.
	CrossFraction float64
}

// HopAttribution is one hop's share of the placement verdict.
type HopAttribution struct {
	// Name echoes HopParams.Name.
	Name string
	// ResidualRate is the hop's capacity net of cross-traffic,
	// expressed as a byte rate — the ceiling this hop alone puts on
	// any stream crossing it.
	ResidualRate units.ByteRate
	// Bottleneck marks the hop with the least residual rate (first
	// wins ties) — the hop that sets the path's effective ceiling.
	Bottleneck bool
	// SustainedOK reports whether the instrument's generation rate
	// fits under this hop's residual rate (true when no generation
	// rate was supplied). A false on a non-bottleneck hop means fixing
	// the bottleneck alone would not make streaming feasible.
	SustainedOK bool
}

// PlacementOpts extends DecideOpts with the edge-prefilter knob.
type PlacementOpts struct {
	DecideOpts
	// PrefilterFactor is the fraction of the raw volume that survives
	// an edge prefilter (0.1 = the operator discards 90%). Zero
	// disables the prefilter alternative; values must lie in (0, 1)
	// to enable it.
	PrefilterFactor float64
}

// PlacementDecision is the full result of DecidePlacement.
type PlacementDecision struct {
	Placement Placement
	// Direct is the §3 decision for the raw end-to-end stream.
	Direct Decision
	// Prefiltered is the decision for the prefiltered residue stream;
	// nil when the prefilter alternative was not evaluated (disabled,
	// fewer than two hops, or the edge cannot sustain the raw rate).
	Prefiltered *Decision
	// Hops attributes residual rate and feasibility per hop, in path
	// order.
	Hops []HopAttribution
	// Reason is a one-line human-readable justification.
	Reason string
}

// AttributeHops computes each hop's residual byte rate, feasibility
// against genRate (zero = don't check), and marks the bottleneck.
func AttributeHops(hops []HopParams, genRate units.ByteRate) []HopAttribution {
	if len(hops) == 0 {
		return nil
	}
	out := make([]HopAttribution, len(hops))
	bn := 0
	for i, h := range hops {
		residual := units.ByteRate(float64(h.Capacity.ByteRate()) * (1 - h.CrossFraction))
		out[i] = HopAttribution{
			Name:         h.Name,
			ResidualRate: residual,
			SustainedOK:  genRate <= 0 || float64(genRate) <= float64(residual),
		}
		if residual < out[bn].ResidualRate {
			bn = i
		}
	}
	out[bn].Bottleneck = true
	return out
}

// DecidePlacement generalizes Decide from "stream or store" to "where
// to process" on a hop chain:
//
//  1. If the raw end-to-end stream wins (Decide → ChooseRemote), stream
//     direct — the path carries the full rate, no edge compute needed.
//  2. Otherwise, if an edge prefilter is configured (PrefilterFactor in
//     (0,1)), the path has at least two hops to split across, and the
//     FIRST hop can sustain the raw generation rate (the instrument
//     must reach the edge operator at full rate), re-decide with the
//     post-filter volume: UnitSize and GenerationRate scale by the
//     factor while the measured TransferRate stands (the residue
//     crosses the same congested path). If the residue stream wins,
//     place the prefilter at the edge.
//  3. Otherwise store-and-forward.
//
// hops may be empty (a flat link): the placement then degenerates to
// stream-direct vs store-forward, exactly the paper's binary verdict.
func DecidePlacement(p Params, hops []HopParams, opts PlacementOpts) (PlacementDecision, error) {
	if opts.PrefilterFactor < 0 || opts.PrefilterFactor >= 1 {
		if opts.PrefilterFactor != 0 {
			return PlacementDecision{}, fmt.Errorf("%w: prefilter factor %g outside (0, 1)",
				ErrInvalidParams, opts.PrefilterFactor)
		}
	}
	direct, err := Decide(p, opts.DecideOpts)
	if err != nil {
		return PlacementDecision{}, err
	}
	pd := PlacementDecision{
		Direct: direct,
		Hops:   AttributeHops(hops, opts.GenerationRate),
	}
	if direct.Choice == ChooseRemote {
		pd.Placement = PlaceStreamDirect
		pd.Reason = "raw stream wins end-to-end: " + direct.Reason
		return pd, nil
	}

	prefilterable := opts.PrefilterFactor > 0 && len(hops) >= 2 &&
		(len(pd.Hops) == 0 || pd.Hops[0].SustainedOK)
	if prefilterable {
		fp := p
		fp.UnitSize = units.ByteSize(float64(p.UnitSize) * opts.PrefilterFactor)
		fopts := opts.DecideOpts
		fopts.GenerationRate = units.ByteRate(float64(opts.GenerationRate) * opts.PrefilterFactor)
		filtered, err := Decide(fp, fopts)
		if err != nil {
			return PlacementDecision{}, fmt.Errorf("core: prefiltered decision: %w", err)
		}
		pd.Prefiltered = &filtered
		if filtered.Choice == ChooseRemote {
			pd.Placement = PlaceEdgePrefilter
			pd.Reason = fmt.Sprintf("raw stream loses (%s) but the %gx edge-prefiltered residue wins: %s",
				direct.Choice, opts.PrefilterFactor, filtered.Reason)
			return pd, nil
		}
	}

	pd.Placement = PlaceStoreForward
	switch {
	case pd.Prefiltered != nil:
		pd.Reason = fmt.Sprintf("neither the raw stream (%s) nor the %gx prefiltered residue (%s) wins; store and forward",
			direct.Choice, opts.PrefilterFactor, pd.Prefiltered.Choice)
	case opts.PrefilterFactor > 0 && len(hops) >= 2:
		pd.Reason = fmt.Sprintf("raw stream loses (%s) and the edge hop cannot sustain the generation rate; store and forward",
			direct.Choice)
	default:
		pd.Reason = "streaming loses (" + direct.Choice.String() + "); store and forward"
	}
	return pd, nil
}
