package core

import (
	"strings"
	"testing"

	"repro/internal/units"
)

// testHops: a fast edge, a congested WAN bottleneck, a roomy ingress.
func testHops() []HopParams {
	return []HopParams{
		{Name: "edge", Capacity: 100 * units.Gbps},
		{Name: "wan", Capacity: 100 * units.Gbps, CrossFraction: 0.8},
		{Name: "ingress", Capacity: 40 * units.Gbps},
	}
}

func TestAttributeHops(t *testing.T) {
	at := AttributeHops(testHops(), 3*units.GBps)
	if len(at) != 3 {
		t.Fatalf("got %d attributions", len(at))
	}
	// Residuals: edge 12.5 GB/s, wan 2.5 GB/s, ingress 5 GB/s.
	if !at[0].Bottleneck && !at[2].Bottleneck && at[1].Bottleneck != true {
		t.Fatalf("bottleneck attribution wrong: %+v", at)
	}
	if at[0].Bottleneck || at[2].Bottleneck {
		t.Fatalf("non-bottleneck hops marked: %+v", at)
	}
	if !at[0].SustainedOK || at[1].SustainedOK || !at[2].SustainedOK {
		t.Fatalf("sustained flags wrong for 3 GB/s generation: %+v", at)
	}
	// No generation rate: every hop sustains.
	for _, a := range AttributeHops(testHops(), 0) {
		if !a.SustainedOK {
			t.Fatalf("zero generation rate must sustain everywhere: %+v", a)
		}
	}
	// Ties go to the first hop.
	tied := []HopParams{
		{Name: "edge", Capacity: 10 * units.Gbps},
		{Name: "wan", Capacity: 10 * units.Gbps},
	}
	att := AttributeHops(tied, 0)
	if !att[0].Bottleneck || att[1].Bottleneck {
		t.Fatalf("tie should break to the first hop: %+v", att)
	}
	if AttributeHops(nil, 0) != nil {
		t.Fatal("empty hops should attribute nothing")
	}
}

// TestPlacementStreamDirect: the paper's §5 point chooses remote, so
// the placement is stream-direct and no prefilter decision is made.
func TestPlacementStreamDirect(t *testing.T) {
	pd, err := DecidePlacement(paperParams(), testHops(), PlacementOpts{PrefilterFactor: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Placement != PlaceStreamDirect {
		t.Fatalf("placement = %v, want stream-direct (%s)", pd.Placement, pd.Reason)
	}
	if pd.Direct.Choice != ChooseRemote || pd.Prefiltered != nil {
		t.Fatalf("direct = %v, prefiltered = %v", pd.Direct.Choice, pd.Prefiltered)
	}
	if len(pd.Hops) != 3 {
		t.Fatalf("hops not attributed: %+v", pd.Hops)
	}
}

// TestPlacementEdgePrefilter: a generation rate the path cannot
// sustain raw (4 GB/s > the 2 GB/s effective rate) kills the direct
// stream, but a 0.25x prefilter residue (1 GB/s) fits and remote still
// wins on time — the operator belongs at the edge.
func TestPlacementEdgePrefilter(t *testing.T) {
	opts := PlacementOpts{
		DecideOpts:      DecideOpts{GenerationRate: 4 * units.GBps},
		PrefilterFactor: 0.25,
	}
	pd, err := DecidePlacement(paperParams(), testHops(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Direct.Choice == ChooseRemote {
		t.Fatal("raw stream should lose the sustained-rate check")
	}
	if pd.Placement != PlaceEdgePrefilter {
		t.Fatalf("placement = %v, want edge-prefilter (%s)", pd.Placement, pd.Reason)
	}
	if pd.Prefiltered == nil || pd.Prefiltered.Choice != ChooseRemote {
		t.Fatalf("prefiltered decision = %+v", pd.Prefiltered)
	}
	if !strings.Contains(pd.Reason, "prefilter") {
		t.Fatalf("reason does not mention the prefilter: %q", pd.Reason)
	}
}

// TestPlacementEdgeCannotSustain: if the instrument outruns the edge
// hop itself, there is nowhere to run the prefilter — store-forward,
// and the prefiltered alternative is never evaluated.
func TestPlacementEdgeCannotSustain(t *testing.T) {
	hops := testHops()
	hops[0].Capacity = 8 * units.Gbps // 1 GB/s residual < 4 GB/s generation
	opts := PlacementOpts{
		DecideOpts:      DecideOpts{GenerationRate: 4 * units.GBps},
		PrefilterFactor: 0.25,
	}
	pd, err := DecidePlacement(paperParams(), hops, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Placement != PlaceStoreForward || pd.Prefiltered != nil {
		t.Fatalf("placement = %v prefiltered = %v, want store-forward with no prefilter eval", pd.Placement, pd.Prefiltered)
	}
	if pd.Hops[0].SustainedOK {
		t.Fatalf("edge hop should fail the sustained check: %+v", pd.Hops[0])
	}
}

// TestPlacementStoreForwardNoPrefilter: with the prefilter disabled
// (factor 0) the decision degenerates to the paper's binary verdict.
func TestPlacementStoreForwardNoPrefilter(t *testing.T) {
	opts := PlacementOpts{DecideOpts: DecideOpts{GenerationRate: 4 * units.GBps}}
	pd, err := DecidePlacement(paperParams(), testHops(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Placement != PlaceStoreForward || pd.Prefiltered != nil {
		t.Fatalf("placement = %v prefiltered = %v", pd.Placement, pd.Prefiltered)
	}
}

// TestPlacementFlatLink: no hops at all — the placement still works
// and mirrors Decide exactly (stream-direct ⇔ ChooseRemote).
func TestPlacementFlatLink(t *testing.T) {
	pd, err := DecidePlacement(paperParams(), nil, PlacementOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Placement != PlaceStreamDirect || pd.Hops != nil {
		t.Fatalf("flat placement = %v hops = %v", pd.Placement, pd.Hops)
	}
	// A prefilter cannot apply to a flat link even when configured.
	opts := PlacementOpts{DecideOpts: DecideOpts{GenerationRate: 4 * units.GBps}, PrefilterFactor: 0.25}
	pd, err = DecidePlacement(paperParams(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Placement != PlaceStoreForward || pd.Prefiltered != nil {
		t.Fatalf("flat infeasible placement = %v prefiltered = %v", pd.Placement, pd.Prefiltered)
	}
}

func TestPlacementValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := DecidePlacement(paperParams(), testHops(), PlacementOpts{PrefilterFactor: bad}); err == nil {
			t.Errorf("prefilter factor %g accepted", bad)
		}
	}
	if _, err := DecidePlacement(Params{}, testHops(), PlacementOpts{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestPlacementString(t *testing.T) {
	want := map[Placement]string{
		PlaceStreamDirect:  "stream-direct",
		PlaceEdgePrefilter: "edge-prefilter",
		PlaceStoreForward:  "store-forward",
		Placement(9):       "Placement(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}
