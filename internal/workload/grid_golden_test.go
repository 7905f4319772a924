package workload

// Cross-commit pins for the grid vocabulary. The equivalence tests
// elsewhere compare two code paths of one build; these compare against
// bytes written once and checked in: testdata/grid_golden.txt holds the
// fingerprints, point counts, normalized axes, cell coordinates and
// cell-record fingerprints that archives and on-disk records are keyed
// by, and TestValidateMessages holds the exact text of every Validate
// rejection (the service returns these strings in 400 bodies).

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// goldenGrids are the grids testdata/grid_golden.txt pins: flat grids
// (a swept one and a Table 2 lowering), a 1-hop path of each role, a
// 3-hop path with a CC axis, and the two 2-hop chains.
func goldenGrids() []struct {
	name string
	axes Axes
} {
	flat := fastAxes()
	flat.CCs = []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic}
	flat.CrossFractions = []float64{0, 0.3}

	sweep := Axes{
		Duration:      1 * time.Second,
		Concurrencies: []int{1, 4},
		ParallelFlows: []int{2, 8},
		TransferSizes: []units.ByteSize{2 * units.GB},
		Strategy:      SpawnScheduled,
		Net:           tcpsim.DefaultConfig(),
	}

	oneHop := func(role tcpsim.HopRole) Axes {
		a := fastAxes()
		a.Path = tcpsim.Path{{Role: role, Capacity: 10e9, RTT: 12 * time.Millisecond, Buffer: 1 * units.MB, CrossFraction: 0.1}}
		return a
	}

	threeHop := multiHopAxes()
	threeHop.CCs = []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic}
	threeHop.IngressBuffers = []units.ByteSize{0, 4 * units.MB}

	wanIngress := multiHopAxes()
	wanIngress.Path = threeHopPath()[1:]
	wanIngress.EdgeCaps = nil
	wanIngress.IngressBuffers = []units.ByteSize{0, 2 * units.MB}

	edgeWAN := multiHopAxes()
	edgeWAN.Path = threeHopPath()[:2]
	edgeWAN.WANRTTs = nil

	return []struct {
		name string
		axes Axes
	}{
		{"flat", flat},
		{"flat-sweep", sweep},
		{"1hop-edge", oneHop(tcpsim.HopEdge)},
		{"1hop-wan", oneHop(tcpsim.HopWAN)},
		{"1hop-ingress", oneHop(tcpsim.HopIngress)},
		{"3hop-cc", threeHop},
		{"wan+ingress", wanIngress},
		{"edge+wan", edgeWAN},
	}
}

// gridGoldenDump renders every golden grid's keyed bytes, one line per
// fact, in the layout of testdata/grid_golden.txt.
func gridGoldenDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, g := range goldenGrids() {
		if err := g.axes.Validate(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		n := g.axes.normalized()
		fmt.Fprintf(&b, "grid %s\n", g.name)
		fmt.Fprintf(&b, "fingerprint %s\n", g.axes.Fingerprint())
		fmt.Fprintf(&b, "netpoints %d size %d\n", g.axes.NetPoints(), g.axes.Size())
		fmt.Fprintf(&b, "normalized %s\n", normalizedValues(n))
		plane := len(n.Concurrencies) * len(n.ParallelFlows)
		for _, c := range g.axes.Cells() {
			fmt.Fprintf(&b, "cell %s %s\n", cellValues(c, plane), cellFingerprint(n.Experiment(c)))
		}
	}
	return b.String()
}

// cellValues renders a cell's coordinates field by field in the layout
// %+v gave GridCell when the file was written, so a field removed from
// GridCell moves no line. NetIndex, the position of the cell's network
// point, is Index over the Table 2 plane's size: Cells enumerates the
// plane innermost.
func cellValues(c GridCell, plane int) string {
	return fmt.Sprintf("{Index:%d NetIndex:%d TransferSize:%v RTT:%v Buffer:%v CC:%v CrossFraction:%v Concurrency:%d ParallelFlows:%d Capacity:%v EdgeCap:%v WANRTT:%v IngressBuffer:%v}",
		c.Index, c.Index/plane, c.TransferSize, c.RTT, c.Buffer, c.CC, c.CrossFraction, c.Concurrency, c.ParallelFlows,
		c.Capacity, c.EdgeCap, c.WANRTT, c.IngressBuffer)
}

// normalizedValues renders every field of normalized axes by name with
// its exact value — integer nanoseconds and FormatFloat(x, 'g', -1, 64)
// floats, as Fingerprint does — so a field added to, removed from or
// renamed in Axes or tcpsim.Config moves no line of the golden file
// unless a value moves.
func normalizedValues(n Axes) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	b := fmt.Appendf(nil, "Duration=%d", int64(n.Duration))
	b = appendList(b, " Concurrencies=", n.Concurrencies, appendInt)
	b = appendList(b, " ParallelFlows=", n.ParallelFlows, appendInt)
	b = appendList(b, " TransferSizes=", n.TransferSizes, appendFloat)
	b = appendList(b, " RTTs=", n.RTTs, appendInt)
	b = appendList(b, " Buffers=", n.Buffers, appendFloat)
	b = appendList(b, " CCs=", n.CCs, appendInt)
	b = appendList(b, " CrossFractions=", n.CrossFractions, appendFloat)
	b = fmt.Appendf(b, " Strategy=%d", int(n.Strategy))
	net := n.Net
	b = fmt.Appendf(b, " Net.Capacity=%s Net.BaseRTT=%d Net.MSS=%s Net.Buffer=%s Net.InitCwndSegments=%d Net.RTO=%d Net.Seed=%d Net.MaxTime=%s",
		f(float64(net.Capacity)), int64(net.BaseRTT), f(float64(net.MSS)), f(float64(net.Buffer)),
		net.InitCwndSegments, int64(net.RTO), net.Seed, f(net.MaxTime))
	b = fmt.Appendf(b, " Net.Cross.Fraction=%s Net.Cross.Period=%d Net.Cross.Duty=%s Net.Cross.PhaseJitter=%t Net.RecordQueue=%t Net.CC=%d",
		f(net.Cross.Fraction), int64(net.Cross.Period), f(net.Cross.Duty), net.Cross.PhaseJitter, net.RecordQueue, int(net.CC))
	for i, h := range n.Path {
		b = fmt.Appendf(b, " Path[%d].Role=%s Path[%d].Capacity=%s Path[%d].RTT=%d Path[%d].Buffer=%s Path[%d].CrossFraction=%s",
			i, h.Role, i, f(float64(h.Capacity)), i, int64(h.RTT), i, f(float64(h.Buffer)), i, f(h.CrossFraction))
	}
	b = appendList(b, " EdgeCaps=", n.EdgeCaps, appendFloat)
	b = appendList(b, " WANRTTs=", n.WANRTTs, appendInt)
	b = appendList(b, " IngressBuffers=", n.IngressBuffers, appendFloat)
	return string(b)
}

func TestGridGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/grid_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := gridGoldenDump(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("grid golden diverges at line %d\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("grid golden length differs: got %d lines, want %d", len(gl), len(wl))
}

// TestValidateMessages pins the exact text and precedence of every
// Axes.Validate rejection.
func TestValidateMessages(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(a Axes) Axes
		want   string
	}{
		{"structurally invalid path", func(a Axes) Axes {
			a.Path = tcpsim.Path{a.Path[1], a.Path[0], a.Path[2]}
			a.Concurrencies = nil
			return a
		}, "workload: tcpsim: path hop 1: role edge out of order after wan (want edge, wan, ingress)"},
		{"hop axes without a path", func(a Axes) Axes {
			a.Path = nil
			a.Concurrencies = nil
			return a
		}, "workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path"},
		{"placeholder hop axis on a flat grid", func(a Axes) Axes {
			a.Path = nil
			a.EdgeCaps, a.WANRTTs = nil, nil
			a.IngressBuffers = []units.ByteSize{0}
			return a
		}, "workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path"},
		{"hop axes with a 1-hop path", func(a Axes) Axes {
			a.Path = a.Path[:1]
			a.EdgeCaps = nil
			return a
		}, "workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path"},
		{"flat RTT axis", func(a Axes) Axes {
			a.RTTs = []time.Duration{8 * time.Millisecond}
			a.Buffers = []units.ByteSize{0, 2 * units.MB}
			a.EdgeCaps = []units.BitRate{0}
			return a
		}, "workload: multi-hop grids sweep WANRTTs, not the flat RTTs axis"},
		{"flat buffer axis", func(a Axes) Axes {
			a.Buffers = []units.ByteSize{0}
			a.CrossFractions = []float64{0, 0.3}
			return a
		}, "workload: multi-hop grids sweep IngressBuffers, not the flat Buffers axis"},
		{"flat cross axis", func(a Axes) Axes {
			a.CrossFractions = []float64{0.3}
			a.WANRTTs = []time.Duration{0}
			return a
		}, "workload: multi-hop grids fix cross-traffic per hop; the flat CrossFractions axis does not apply"},
		{"edge axis without an edge hop", func(a Axes) Axes {
			a.Path = a.Path[1:]
			a.EdgeCaps = []units.BitRate{10e9}
			a.WANRTTs = []time.Duration{0}
			return a
		}, "workload: EdgeCaps axis requires an edge hop in the path"},
		{"non-positive edge capacity", func(a Axes) Axes {
			a.EdgeCaps = []units.BitRate{10e9, -1}
			a.IngressBuffers = []units.ByteSize{-1}
			return a
		}, "workload: EdgeCaps values must be positive"},
		{"wan axis without a wan hop", func(a Axes) Axes {
			a.Path = tcpsim.Path{a.Path[0], a.Path[2]}
			a.IngressBuffers = []units.ByteSize{-1}
			return a
		}, "workload: WANRTTs axis requires a wan hop in the path"},
		{"non-positive wan rtt", func(a Axes) Axes {
			a.WANRTTs = []time.Duration{0}
			return a
		}, "workload: WANRTTs values must be positive"},
		{"ingress axis without an ingress hop", func(a Axes) Axes {
			a.Path = a.Path[:2]
			a.IngressBuffers = []units.ByteSize{4 * units.MB}
			a.Concurrencies = nil
			return a
		}, "workload: IngressBuffers axis requires an ingress hop in the path"},
		{"negative ingress buffer", func(a Axes) Axes {
			a.IngressBuffers = []units.ByteSize{0, -1}
			a.Concurrencies = nil
			return a
		}, "workload: IngressBuffers values must be non-negative"},
		{"empty concurrencies", func(a Axes) Axes {
			a.Concurrencies = nil
			a.ParallelFlows = nil
			return a
		}, "workload: empty grid axis Concurrencies"},
		{"empty flows", func(a Axes) Axes {
			a.ParallelFlows = nil
			a.TransferSizes = nil
			return a
		}, "workload: empty grid axis ParallelFlows"},
		{"empty sizes on a flat grid", func(a Axes) Axes {
			a.Path, a.EdgeCaps, a.WANRTTs = nil, nil, nil
			a.TransferSizes = nil
			return a
		}, "workload: empty grid axis TransferSizes"},
		// 1024⁶·16 = 2⁶⁴ cells: an unchecked product wraps to exactly 0.
		{"cell count overflow on a flat grid", func(a Axes) Axes {
			a.Path, a.EdgeCaps, a.WANRTTs, a.IngressBuffers = nil, nil, nil, nil
			a.Concurrencies, a.ParallelFlows = make([]int, 1024), make([]int, 1024)
			a.TransferSizes, a.RTTs = make([]units.ByteSize, 1024), make([]time.Duration, 1024)
			a.Buffers, a.CCs = make([]units.ByteSize, 1024), make([]tcpsim.CongestionControl, 1024)
			a.CrossFractions = make([]float64, 16)
			return a
		}, "workload: grid cell count overflows int"},
		{"cell count overflow on a multi-hop grid", func(a Axes) Axes {
			a.Concurrencies, a.ParallelFlows = make([]int, 1024), make([]int, 1024)
			a.TransferSizes, a.CCs = make([]units.ByteSize, 1024), make([]tcpsim.CongestionControl, 1024)
			a.EdgeCaps = make([]units.BitRate, 1024)
			for i := range a.EdgeCaps {
				a.EdgeCaps[i] = units.Gbps
			}
			a.WANRTTs = make([]time.Duration, 1024)
			for i := range a.WANRTTs {
				a.WANRTTs[i] = time.Millisecond
			}
			a.IngressBuffers = make([]units.ByteSize, 1024)
			return a
		}, "workload: grid cell count overflows int"},
		// Past the structural checks, every cell must pass its own
		// Experiment.Validate, which words the rejection.
		{"zero duration", func(a Axes) Axes {
			a.Duration = 0
			return a
		}, "workload: duration must be > 0, got 0s"},
		{"zero concurrency", func(a Axes) Axes {
			a.Concurrencies = []int{2, 0}
			return a
		}, "workload: concurrency must be > 0, got 0"},
		{"1000 parallel flows", func(a Axes) Axes {
			a.ParallelFlows = []int{2, 1000}
			return a
		}, "workload: parallel flows must be in [1,999], got 1000"},
		{"flow limit per cell", func(a Axes) Axes {
			a.Concurrencies = []int{2, MaxCellFlows/8 + 1}
			return a
		}, "workload: a cell of 1 s x 8193 clients/s x 8 flows exceeds the 65536-flow limit per cell"},
		{"zero transfer size", func(a Axes) Axes {
			a.TransferSizes = []units.ByteSize{units.GB, 0}
			return a
		}, "workload: transfer size must be > 0, got 0 B"},
		{"unknown CC", func(a Axes) Axes {
			a.CCs = []tcpsim.CongestionControl{tcpsim.Reno, 2}
			return a
		}, "tcpsim: unknown congestion control 2"},
		{"zero capacity on a flat grid", func(a Axes) Axes {
			a.Path, a.EdgeCaps, a.WANRTTs = nil, nil, nil
			a.Net.Capacity = 0
			return a
		}, "tcpsim: capacity must be finite and > 0, got 0 bps"},
		{"zero RTT on a flat grid", func(a Axes) Axes {
			a.Path, a.EdgeCaps, a.WANRTTs = nil, nil, nil
			a.RTTs = []time.Duration{8 * time.Millisecond, 0}
			return a
		}, "tcpsim: base RTT must be > 0, got 0s"},
		{"negative buffer on a flat grid", func(a Axes) Axes {
			a.Path, a.EdgeCaps, a.WANRTTs = nil, nil, nil
			a.Buffers = []units.ByteSize{0, -units.MB}
			return a
		}, "tcpsim: buffer must be finite and >= 0, got -1.00 MB"},
		{"cross fraction past 0.95 on a flat grid", func(a Axes) Axes {
			a.Path, a.EdgeCaps, a.WANRTTs = nil, nil, nil
			a.CrossFractions = []float64{0, 0.99}
			return a
		}, "tcpsim: cross-traffic fraction 0.99 out of [0, 0.95]"},
		{"summed RTT wraps", func(a Axes) Axes {
			a.WANRTTs = []time.Duration{20 * time.Millisecond, math.MaxInt64}
			return a
		}, "tcpsim: base RTT must be > 0, got -2562047h47m16.851775809s"},
		{"bottleneck hop's cross fraction past 0.95", func(a Axes) Axes {
			a.Path[0].CrossFraction = 0.97
			return a
		}, "tcpsim: cross-traffic fraction 0.97 out of [0, 0.95]"},
		// At 10 Gbps the edge is the bottleneck and the ingress buffer
		// idle; at 60 Gbps the 40-Gbps ingress takes over with its buffer.
		{"infinite ingress buffer behind a later edge capacity", func(a Axes) Axes {
			a.IngressBuffers = []units.ByteSize{4 * units.MB, units.ByteSize(math.Inf(1))}
			return a
		}, "tcpsim: buffer must be finite and >= 0, got +Inf PB"},
		// An infinite edge capacity ties an infinite WAN hop, and the
		// first hop wins the tie.
		{"infinite edge capacity at a tie", func(a Axes) Axes {
			a.Path = a.Path[:2]
			a.Path[1].Capacity = units.BitRate(math.Inf(1))
			a.EdgeCaps = []units.BitRate{10e9, units.BitRate(math.Inf(1))}
			return a
		}, "tcpsim: capacity must be finite and > 0, got +Inf Tbps"},
	}
	for _, tc := range cases {
		err := tc.mutate(multiHopAxes()).Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the axes", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: Validate error\n got %q\nwant %q", tc.name, err, tc.want)
		}
	}

	// Where an axis does not apply it may still hold exactly the
	// singleton normalized() fills in.
	accepted := map[string]func(a Axes) Axes{
		"composed flat singletons": func(a Axes) Axes {
			eff := a.Path.Effective(a.Net)
			a.RTTs = []time.Duration{eff.BaseRTT}
			a.Buffers = []units.ByteSize{eff.Buffer}
			a.CrossFractions = []float64{eff.Cross.Fraction}
			return a
		},
		"zero placeholder for an absent hop": func(a Axes) Axes {
			a.Path = a.Path[1:]
			a.EdgeCaps = []units.BitRate{0}
			return a
		},
		"normalized multi-hop": func(a Axes) Axes { return a.normalized() },
		"normalized 1-hop":     func(a Axes) Axes { a.Path, a.EdgeCaps, a.WANRTTs = a.Path[1:2], nil, nil; return a.normalized() },
	}
	for name, mutate := range accepted {
		if err := mutate(multiHopAxes()).Validate(); err != nil {
			t.Errorf("%s: Validate rejected the axes: %v", name, err)
		}
	}
}
