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
	"os"
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
		// The file was written while Axes still had a KeepClientResults
		// field; its "false" term stays as a fixed token, like the
		// fingerprint's ";keep=false".
		fmt.Fprintf(&b, "normalized %s KeepClientResults:false}\n", strings.TrimSuffix(fmt.Sprintf("%+v", n), "}"))
		for _, c := range g.axes.Cells() {
			fmt.Fprintf(&b, "cell %+v %s\n", c, cellFingerprint(n.Experiment(c)))
		}
	}
	return b.String()
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
