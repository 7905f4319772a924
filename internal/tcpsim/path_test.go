package tcpsim

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

func mustRate(t *testing.T, s string) units.BitRate {
	t.Helper()
	r, err := units.ParseBitRate(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHopRoleRoundTrip(t *testing.T) {
	for _, r := range []HopRole{HopEdge, HopWAN, HopIngress} {
		got, err := ParseHopRole(r.String())
		if err != nil {
			t.Fatalf("ParseHopRole(%q): %v", r.String(), err)
		}
		if got != r {
			t.Fatalf("ParseHopRole(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if _, err := ParseHopRole("core"); err == nil {
		t.Fatal("ParseHopRole accepted an unknown role")
	}
}

func TestPathValidate(t *testing.T) {
	ok := Path{
		{Role: HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond},
		{Role: HopWAN, Capacity: 100e9, RTT: 30 * time.Millisecond, CrossFraction: 0.3},
		{Role: HopIngress, Capacity: 40e9, RTT: time.Millisecond, Buffer: 4 << 20},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid 3-hop path rejected: %v", err)
	}
	if err := (Path{}).Validate(); err != nil {
		t.Fatalf("empty path rejected: %v", err)
	}
	cases := map[string]Path{
		"too many hops": {
			{Role: HopEdge, Capacity: 1e9, RTT: time.Millisecond},
			{Role: HopEdge, Capacity: 1e9, RTT: time.Millisecond},
			{Role: HopWAN, Capacity: 1e9, RTT: time.Millisecond},
			{Role: HopIngress, Capacity: 1e9, RTT: time.Millisecond},
		},
		"duplicate role": {
			{Role: HopWAN, Capacity: 1e9, RTT: time.Millisecond},
			{Role: HopWAN, Capacity: 1e9, RTT: time.Millisecond},
		},
		"roles out of order": {
			{Role: HopWAN, Capacity: 1e9, RTT: time.Millisecond},
			{Role: HopEdge, Capacity: 1e9, RTT: time.Millisecond},
		},
		"zero capacity": {{Role: HopEdge, RTT: time.Millisecond}},
		"zero rtt":      {{Role: HopEdge, Capacity: 1e9}},
		"negative buf":  {{Role: HopEdge, Capacity: 1e9, RTT: time.Millisecond, Buffer: -1}},
		"cross out of range": {
			{Role: HopEdge, Capacity: 1e9, RTT: time.Millisecond, CrossFraction: 1},
		},
		"NaN cross": {
			{Role: HopEdge, Capacity: 1e9, RTT: time.Millisecond},
			{Role: HopWAN, Capacity: 1e9, RTT: time.Millisecond, CrossFraction: math.NaN()},
		},
		"unknown role": {{Role: HopRole(7), Capacity: 1e9, RTT: time.Millisecond}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
}

func TestPathHopLookup(t *testing.T) {
	p := Path{
		{Role: HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond},
		{Role: HopIngress, Capacity: 40e9, RTT: time.Millisecond},
	}
	if h, ok := p.Hop(HopIngress); !ok || h.Capacity != 40e9 {
		t.Fatalf("Hop(HopIngress) = %+v, %v", h, ok)
	}
	if _, ok := p.Hop(HopWAN); ok {
		t.Fatal("Hop(HopWAN) found a hop the path does not have")
	}
}

// TestPathWithAxes: each hop knob reaches only its own hop, a zero
// capacity or RTT leaves the hop alone while a zero buffer is applied,
// and the receiver is never modified.
func TestPathWithAxes(t *testing.T) {
	p := Path{
		{Role: HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond, Buffer: units.MB},
		{Role: HopWAN, Capacity: 100e9, RTT: 30 * time.Millisecond, Buffer: 8 * units.MB},
		{Role: HopIngress, Capacity: 40e9, RTT: time.Millisecond, Buffer: 4 * units.MB},
	}
	orig := append(Path(nil), p...)
	got := p.WithAxes(60e9, 20*time.Millisecond, 2*units.MB)
	want := Path{
		{Role: HopEdge, Capacity: 60e9, RTT: 2 * time.Millisecond, Buffer: units.MB},
		{Role: HopWAN, Capacity: 100e9, RTT: 20 * time.Millisecond, Buffer: 8 * units.MB},
		{Role: HopIngress, Capacity: 40e9, RTT: time.Millisecond, Buffer: 2 * units.MB},
	}
	for i := range want {
		if got[i] != want[i] || p[i] != orig[i] {
			t.Fatalf("hop %d: got %+v want %+v (receiver now %+v)", i, got[i], want[i], p[i])
		}
	}
	zero := p.WithAxes(0, 0, 0)
	if zero[0] != p[0] || zero[1] != p[1] || zero[2].Buffer != 0 {
		t.Fatalf("WithAxes(0, 0, 0) = %+v", zero)
	}
}

// TestSingleHopEffectiveIsIdentity: a 1-hop path composes to exactly
// that hop's link over the base endpoint parameters — the structural
// guarantee behind single-hop grids staying bit-identical to flat Net.
func TestSingleHopEffectiveIsIdentity(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 42
	base.CC = Cubic
	h := Hop{Role: HopWAN, Capacity: mustRate(t, "12Gbps"), RTT: 24 * time.Millisecond, Buffer: 3 << 20, CrossFraction: 0.25}
	got := Path{h}.Effective(base)
	want := base
	want.Capacity = h.Capacity
	want.BaseRTT = h.RTT
	want.Buffer = h.Buffer
	want.CrossFraction = h.CrossFraction
	if got != want {
		t.Fatalf("1-hop Effective = %+v, want %+v", got, want)
	}
}

// TestEffectiveComposesBottleneck: the hop with the least residual
// capacity (after cross-traffic) sets the link parameters, RTTs sum.
func TestEffectiveComposesBottleneck(t *testing.T) {
	base := DefaultConfig()
	p := Path{
		{Role: HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond, Buffer: 1 << 20},
		// 100 Gbps at 93% cross-load leaves 7 Gbps residual — the true
		// bottleneck despite the largest raw capacity.
		{Role: HopWAN, Capacity: 100e9, RTT: 30 * time.Millisecond, Buffer: 8 << 20, CrossFraction: 0.93},
		{Role: HopIngress, Capacity: 40e9, RTT: time.Millisecond, Buffer: 4 << 20},
	}
	got := p.Effective(base)
	if got.Capacity != 100e9 || got.CrossFraction != 0.93 || got.Buffer != 8<<20 {
		t.Fatalf("bottleneck hop not WAN: %+v", got)
	}
	if got.BaseRTT != 33*time.Millisecond {
		t.Fatalf("path RTT = %v, want 33ms", got.BaseRTT)
	}
	if b := p.Bottleneck(); b.Role != HopWAN {
		t.Fatalf("Bottleneck() = %v, want wan", b.Role)
	}
}

// Ties on residual capacity go to the earliest hop, deterministically.
func TestEffectiveBottleneckTieBreak(t *testing.T) {
	p := Path{
		{Role: HopEdge, Capacity: 10e9, RTT: time.Millisecond, Buffer: 1 << 20},
		{Role: HopWAN, Capacity: 10e9, RTT: time.Millisecond, Buffer: 2 << 20},
	}
	if got := p.Effective(DefaultConfig()); got.Buffer != 1<<20 {
		t.Fatalf("tie broke to later hop: %+v", got)
	}
}

func TestEffectiveEmptyPathIsBase(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 7
	if got := (Path)(nil).Effective(base); got != base {
		t.Fatalf("nil path Effective = %+v, want base unchanged", got)
	}
}

// Effective must be idempotent: re-composing a path over an already
// composed config reproduces the same config (the grid normalizer
// relies on this when it folds Path into Net).
func TestEffectiveIdempotent(t *testing.T) {
	base := DefaultConfig()
	p := Path{
		{Role: HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond},
		{Role: HopIngress, Capacity: 40e9, RTT: time.Millisecond, CrossFraction: 0.5},
	}
	once := p.Effective(base)
	twice := p.Effective(once)
	if once != twice {
		t.Fatalf("Effective not idempotent: %+v vs %+v", once, twice)
	}
}

func TestValidateErrorNamesHop(t *testing.T) {
	p := Path{{Role: HopWAN, Capacity: -1, RTT: time.Millisecond}}
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "wan") {
		t.Fatalf("error should name the offending hop: %v", err)
	}
}
