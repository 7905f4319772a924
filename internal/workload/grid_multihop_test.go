package workload

// Multi-hop grid semantics: hop-axis enumeration, bottleneck
// composition, validation, fingerprint disjointness, determinism, and
// cache behavior — including cross-topology record sharing with the
// equivalent flat grid (composed coordinates, not topology, key the
// records).

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// threeHopPath: edge 10 Gbps / 2ms, WAN 100 Gbps / 30ms at 30% cross,
// ingress 40 Gbps / 1ms with a 4 MB queue. The edge's 10 Gbps residual
// is the bottleneck.
func threeHopPath() tcpsim.Path {
	return tcpsim.Path{
		{Role: tcpsim.HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond, Buffer: 1 * units.MB},
		{Role: tcpsim.HopWAN, Capacity: 100e9, RTT: 30 * time.Millisecond, Buffer: 8 * units.MB, CrossFraction: 0.3},
		{Role: tcpsim.HopIngress, Capacity: 40e9, RTT: 1 * time.Millisecond, Buffer: 4 * units.MB},
	}
}

// multiHopAxes is the unit-test hop grid: 2 edge capacities × 2 WAN
// RTTs × 2 P × 2 conc = 16 one-second cells.
func multiHopAxes() Axes {
	return Axes{
		Duration:      1 * time.Second,
		Concurrencies: []int{2, 6},
		ParallelFlows: []int{2, 8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Strategy:      SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
		Path:          threeHopPath(),
		EdgeCaps:      []units.BitRate{10e9, 60e9},
		WANRTTs:       []time.Duration{20 * time.Millisecond, 60 * time.Millisecond},
	}
}

func TestMultiHopSizeAndCells(t *testing.T) {
	a := multiHopAxes()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.NetPoints(); got != 4 {
		t.Fatalf("NetPoints = %d, want 4", got)
	}
	if got := a.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	cells := a.Cells()
	if len(cells) != 16 {
		t.Fatalf("len(Cells) = %d, want 16", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries Index %d", i, c.Index)
		}
		// Composed RTT: edge 2ms + swept WAN RTT + ingress 1ms.
		if want := 3*time.Millisecond + c.WANRTT; c.RTT != want {
			t.Fatalf("cell %d: composed RTT %v, want %v", i, c.RTT, want)
		}
		switch c.EdgeCap {
		case 10e9:
			// Edge residual 10 Gbps < WAN residual 70 Gbps < ingress 40:
			// the edge is the bottleneck.
			if c.Capacity != 10e9 || c.Buffer != 1*units.MB || c.CrossFraction != 0 {
				t.Fatalf("cell %d: bottleneck should be the 10G edge: %+v", i, c)
			}
		case 60e9:
			// Edge residual 60 > ingress 40: the ingress takes over.
			if c.Capacity != 40e9 || c.Buffer != 4*units.MB || c.CrossFraction != 0 {
				t.Fatalf("cell %d: bottleneck should be the 40G ingress: %+v", i, c)
			}
		default:
			t.Fatalf("cell %d: unexpected EdgeCap %v", i, c.EdgeCap)
		}
	}
	// The Table 2 plane is innermost: its four cells share a hop point.
	hop := func(c GridCell) [3]float64 {
		return [3]float64{float64(c.EdgeCap), float64(c.WANRTT), float64(c.IngressBuffer)}
	}
	if hop(cells[0]) != hop(cells[3]) || hop(cells[3]) == hop(cells[4]) {
		t.Fatalf("hop-point grouping wrong: %v %v %v", hop(cells[0]), hop(cells[3]), hop(cells[4]))
	}
}

func TestMultiHopValidate(t *testing.T) {
	cases := map[string]func(a Axes) Axes{
		"hop axes without a path": func(a Axes) Axes {
			a.Path = nil
			return a
		},
		"hop axes with a 1-hop path": func(a Axes) Axes {
			a.Path = a.Path[:1]
			a.WANRTTs = nil
			return a
		},
		"flat RTT axis on a multi-hop grid": func(a Axes) Axes {
			a.RTTs = []time.Duration{8 * time.Millisecond, 16 * time.Millisecond}
			return a
		},
		"flat buffer axis on a multi-hop grid": func(a Axes) Axes {
			a.Buffers = []units.ByteSize{0, 2 * units.MB}
			return a
		},
		"flat cross axis on a multi-hop grid": func(a Axes) Axes {
			a.CrossFractions = []float64{0, 0.3}
			return a
		},
		"hop axis for an absent hop": func(a Axes) Axes {
			a.Path = a.Path[1:] // wan+ingress only
			a.EdgeCaps = []units.BitRate{10e9}
			return a
		},
		"non-positive edge capacity": func(a Axes) Axes {
			a.EdgeCaps = []units.BitRate{0}
			return a
		},
		"non-positive wan rtt": func(a Axes) Axes {
			a.WANRTTs = []time.Duration{0}
			return a
		},
		"structurally invalid path": func(a Axes) Axes {
			a.Path = tcpsim.Path{a.Path[1], a.Path[0], a.Path[2]}
			return a
		},
	}
	for name, mutate := range cases {
		if err := mutate(multiHopAxes()).Validate(); err == nil {
			t.Errorf("%s: Validate accepted the axes", name)
		}
	}
	// The CC axis is an endpoint property and stays sweepable.
	ok := multiHopAxes()
	ok.CCs = []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic}
	if err := ok.Validate(); err != nil {
		t.Fatalf("CC axis on a multi-hop grid rejected: %v", err)
	}
	if ok.Size() != 32 {
		t.Fatalf("Size with CC axis = %d, want 32", ok.Size())
	}
	// Validate must be stable under normalization (the planner and the
	// caches re-validate normalized axes).
	if err := multiHopAxes().normalized().Validate(); err != nil {
		t.Fatalf("normalized multi-hop axes failed Validate: %v", err)
	}
}

// TestMultiHopFingerprint: hop terms render, distinguish paths, and
// never appear on flat or 1-hop grids.
func TestMultiHopFingerprint(t *testing.T) {
	a := multiHopAxes()
	fp := a.Fingerprint()
	for _, term := range []string{";hops=edge:", "|wan:", "|ingress:", ";ecaps=", ";wrtts=", ";ibufs="} {
		if !strings.Contains(fp, term) {
			t.Fatalf("multi-hop fingerprint missing %q: %s", term, fp)
		}
	}
	b := a
	b.Path = append(tcpsim.Path(nil), a.Path...)
	b.Path[1].CrossFraction = 0.5
	if b.Fingerprint() == fp {
		t.Fatal("fingerprint does not distinguish hop cross-traffic")
	}
	if flat := fastAxes().Fingerprint(); strings.Contains(flat, "hops=") {
		t.Fatalf("flat fingerprint grew a hops term: %s", flat)
	}
	one := fastAxes()
	one.Path = tcpsim.Path{{Role: tcpsim.HopWAN, Capacity: one.Net.Capacity, RTT: one.Net.BaseRTT,
		Buffer: one.Net.Buffer, CrossFraction: one.Net.Cross.Fraction}}
	if strings.Contains(one.Fingerprint(), "hops=") {
		t.Fatal("1-hop fingerprint grew a hops term (fold failed)")
	}
}

// TestMultiHopDeterminismAndWarmCache: worker-count independence, and
// a warm re-open of a multi-hop grid serves every cell from the
// segment with zero engine runs, byte-identical.
func TestMultiHopDeterminismAndWarmCache(t *testing.T) {
	a := multiHopAxes()
	serial, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGridParallel(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gridRowsJSON(t, par.Rows) != gridRowsJSON(t, serial.Rows) {
		t.Fatal("multi-hop grid not worker-count independent")
	}

	dir := t.TempDir()
	cold := NewGridCache()
	cold.SetDiskDir(dir)
	g, err := cold.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, serial.Rows) {
		t.Fatal("cached multi-hop rows differ from cold serial RunGrid")
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	base := ReadCacheStats()
	g2, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != 0 || d.CellsFromSegment != int64(a.Size()) {
		t.Fatalf("multi-hop warm open stats = %v, want all %d cells from segment", d, a.Size())
	}
	if gridRowsJSON(t, g2.Rows) != gridRowsJSON(t, g.Rows) {
		t.Fatal("multi-hop warm rows not byte-identical")
	}
}

// TestMultiHopSharesCellsWithFlat: a multi-hop cell is keyed by its
// COMPOSED coordinates, so a flat grid over the same base Net that
// sweeps through the same composed points must warm-serve the
// multi-hop grid's cells — topology is a description, the operating
// point is the cache identity. (As with any cross-grid sharing, the
// base Net must match: per-cell seed offsets are intrinsic to a
// point's coordinates *relative to the base Net*. The multi-hop grid's
// base Net is the composition of the path's own hop values, so the
// flat twin uses exactly that and sweeps the composed RTT.)
func TestMultiHopSharesCellsWithFlat(t *testing.T) {
	a := multiHopAxes()
	a.EdgeCaps = a.EdgeCaps[:1]                        // 10G edge: the bottleneck
	a.WANRTTs = []time.Duration{20 * time.Millisecond} // composed RTT 23ms

	flat := Axes{
		Duration:      a.Duration,
		Concurrencies: a.Concurrencies,
		ParallelFlows: a.ParallelFlows,
		TransferSizes: a.TransferSizes,
		Strategy:      a.Strategy,
		Net:           a.Path.Effective(a.Net), // the multi-hop grid's own base Net
		RTTs:          []time.Duration{23 * time.Millisecond},
	}
	if flat.Net.Capacity != 10e9 || flat.Net.BaseRTT != 33*time.Millisecond ||
		flat.Net.Buffer != 1*units.MB || flat.Net.Cross.Fraction != 0 {
		t.Fatalf("unexpected composed base Net: %+v", flat.Net)
	}

	dir := t.TempDir()
	cold := NewGridCache()
	cold.SetDiskDir(dir)
	ref, err := cold.Get(flat, 0)
	if err != nil {
		t.Fatal(err)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	base := ReadCacheStats()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != 0 || d.CellsFromSegment != int64(a.Size()) {
		t.Fatalf("multi-hop grid stats = %v, want all %d cells served from the flat grid's records", d, a.Size())
	}
	// The measurements are bit-identical; the Cell coordinates legitimately
	// differ (one grid describes the point through hops, the other flat).
	if len(g.Rows) != len(ref.Rows) {
		t.Fatalf("row count %d != %d", len(g.Rows), len(ref.Rows))
	}
	for i := range g.Rows {
		if !rowsBitEqual(g.Rows[i].SweepRow, ref.Rows[i].SweepRow) {
			t.Fatalf("row %d measurements differ from the flat grid at the same composed operating point", i)
		}
	}
}
