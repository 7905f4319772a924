package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestAxesSpecApply(t *testing.T) {
	base := workload.Axes{
		Concurrencies: []int{4},
		ParallelFlows: []int{8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Net:           tcpsim.DefaultConfig(),
	}
	f := AxesSpec{
		Concs:   "1, 4,8",
		Flows:   "2,8",
		Sizes:   "0.5GB,2GB",
		RTTs:    "8ms,16ms,64ms",
		Buffers: "auto,2MB",
		CCs:     "reno,cubic",
		Crosses: "0,0.3",
	}
	a, err := f.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Concurrencies) != 3 || a.Concurrencies[2] != 8 {
		t.Errorf("Concurrencies = %v", a.Concurrencies)
	}
	if len(a.ParallelFlows) != 2 {
		t.Errorf("ParallelFlows = %v", a.ParallelFlows)
	}
	if len(a.TransferSizes) != 2 || a.TransferSizes[1] != 2*units.GB {
		t.Errorf("TransferSizes = %v", a.TransferSizes)
	}
	if len(a.RTTs) != 3 || a.RTTs[0] != 8*time.Millisecond {
		t.Errorf("RTTs = %v", a.RTTs)
	}
	if len(a.Buffers) != 2 || a.Buffers[0] != 0 || a.Buffers[1] != 2*units.MB {
		t.Errorf("Buffers = %v", a.Buffers)
	}
	if len(a.CCs) != 2 || a.CCs[1] != tcpsim.Cubic {
		t.Errorf("CCs = %v", a.CCs)
	}
	if len(a.CrossFractions) != 2 || a.CrossFractions[1] != 0.3 {
		t.Errorf("CrossFractions = %v", a.CrossFractions)
	}
	if a.Size() != 3*2*2*3*2*2*2 {
		t.Errorf("Size = %d", a.Size())
	}
}

func TestAxesSpecEmptyKeepsBase(t *testing.T) {
	base := workload.Axes{
		Concurrencies: []int{4},
		ParallelFlows: []int{8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Net:           tcpsim.DefaultConfig(),
	}
	a, err := AxesSpec{}.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 1 {
		t.Errorf("Size = %d, want 1", a.Size())
	}
	if len(a.RTTs) != 0 {
		t.Errorf("RTTs = %v, want base (nil)", a.RTTs)
	}
	if a.Path != nil || a.EdgeCaps != nil || a.WANRTTs != nil || a.IngressBuffers != nil {
		t.Errorf("empty spec grew hop axes: %+v", a)
	}
}

func TestAxesSpecErrors(t *testing.T) {
	base := workload.Axes{Net: tcpsim.DefaultConfig()}
	for name, f := range map[string]AxesSpec{
		"-concs":           {Concs: "three"},
		"-pflows":          {Flows: "2,x"},
		"-sizes":           {Sizes: "half a gig"},
		"-rtts":            {RTTs: "16"},
		"-buffers":         {Buffers: "big"},
		"-ccs":             {CCs: "bbr"},
		"-crosses":         {Crosses: "30%"},
		"-hops":            {Hops: "edge:10Gbps"},
		"-edge-caps":       {Hops: twoHopSpec, EdgeCaps: "fast"},
		"-wan-rtts":        {Hops: twoHopSpec, WANRTTs: "30"},
		"-ingress-buffers": {Hops: threeHopSpec, IngressBuffers: "big"},
	} {
		_, err := f.Apply(base)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

const (
	twoHopSpec   = "edge:10Gbps:2ms:1MB,wan:100Gbps:30ms:8MB:0.3"
	threeHopSpec = twoHopSpec + ",ingress:40Gbps:1ms:4MB"
)

func TestParsePath(t *testing.T) {
	p, err := ParsePath(threeHopSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := tcpsim.Path{
		{Role: tcpsim.HopEdge, Capacity: 10e9, RTT: 2 * time.Millisecond, Buffer: 1 * units.MB},
		{Role: tcpsim.HopWAN, Capacity: 100e9, RTT: 30 * time.Millisecond, Buffer: 8 * units.MB, CrossFraction: 0.3},
		{Role: tcpsim.HopIngress, Capacity: 40e9, RTT: 1 * time.Millisecond, Buffer: 4 * units.MB},
	}
	if len(p) != len(want) {
		t.Fatalf("hops = %d, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("hop %d = %+v, want %+v", i, p[i], want[i])
		}
	}
	// "auto" buffers and omitted optional parts.
	p, err = ParsePath("wan:25Gbps:16ms:auto,ingress:40Gbps:1ms")
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Buffer != 0 || p[1].Buffer != 0 {
		t.Errorf("auto/omitted buffers = %v %v, want 0 0", p[0].Buffer, p[1].Buffer)
	}
	if p, err := ParsePath(""); p != nil || err != nil {
		t.Errorf("empty spec = %v, %v", p, err)
	}
	for name, spec := range map[string]string{
		"too few parts":  "edge:10Gbps",
		"too many parts": "edge:10Gbps:2ms:1MB:0.3:extra",
		"bad role":       "core:10Gbps:2ms",
		"bad capacity":   "edge:fast:2ms",
		"bad rtt":        "edge:10Gbps:soon",
		"bad buffer":     "edge:10Gbps:2ms:big",
		"bad cross":      "edge:10Gbps:2ms:1MB:most",
		"out of order":   "wan:100Gbps:30ms,edge:10Gbps:2ms",
		"duplicate role": "edge:10Gbps:2ms,edge:10Gbps:2ms",
	} {
		if _, err := ParsePath(spec); err == nil {
			t.Errorf("%s (%q): accepted", name, spec)
		}
	}
}

func TestAxesSpecHopApply(t *testing.T) {
	base := workload.Axes{
		Concurrencies: []int{4},
		ParallelFlows: []int{8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Net:           tcpsim.DefaultConfig(),
	}
	f := AxesSpec{
		Hops:           threeHopSpec,
		EdgeCaps:       "10Gbps,60Gbps",
		WANRTTs:        "20ms,60ms",
		IngressBuffers: "auto,4MB",
	}
	a, err := f.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Path) != 3 {
		t.Fatalf("Path = %v", a.Path)
	}
	if len(a.EdgeCaps) != 2 || a.EdgeCaps[1] != 60e9 {
		t.Errorf("EdgeCaps = %v", a.EdgeCaps)
	}
	if len(a.WANRTTs) != 2 || a.WANRTTs[0] != 20*time.Millisecond {
		t.Errorf("WANRTTs = %v", a.WANRTTs)
	}
	if len(a.IngressBuffers) != 2 || a.IngressBuffers[0] != 0 || a.IngressBuffers[1] != 4*units.MB {
		t.Errorf("IngressBuffers = %v", a.IngressBuffers)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("applied hop axes fail Validate: %v", err)
	}
	if a.Size() != 2*2*2 {
		t.Errorf("Size = %d, want 8", a.Size())
	}
}

func TestAxesSpecV2Fields(t *testing.T) {
	if got := (AxesSpec{Concs: "2", RTTs: "8ms"}).V2Fields(); len(got) != 0 {
		t.Errorf("legacy fields flagged as v2: %v", got)
	}
	var f AxesSpec
	for _, r := range axisFlags {
		*r.field(&f) = "x"
	}
	got := strings.Join(f.V2Fields(), ",")
	if got != "hops,edge_caps,wan_rtts,ingress_buffers" {
		t.Errorf("V2Fields = %q", got)
	}
}

// TestAxisFlagsMatchJSONTags: every AxesSpec field has exactly one row
// in axisFlags, and its JSON name (the one encoding/json reads from the
// struct tag) is the row's flag name with '-' spelled '_'.
func TestAxisFlagsMatchJSONTags(t *testing.T) {
	if n := reflect.TypeOf(AxesSpec{}).NumField(); n != len(axisFlags) {
		t.Fatalf("AxesSpec has %d fields, axisFlags %d rows", n, len(axisFlags))
	}
	for _, r := range axisFlags {
		var f AxesSpec
		*r.field(&f) = "x"
		got, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"` + strings.ReplaceAll(r.name, "-", "_") + `":"x"}`; string(got) != want {
			t.Errorf("-%s: JSON %s, want %s", r.name, got, want)
		}
	}
}

func TestGridHeaderMultiHop(t *testing.T) {
	base := workload.Axes{
		Concurrencies: []int{4},
		ParallelFlows: []int{8},
		TransferSizes: []units.ByteSize{0.5 * units.GB},
		Net:           tcpsim.DefaultConfig(),
	}
	flat, err := AxesSpec{RTTs: "8ms,16ms"}.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := GridHeader(flat); !strings.Contains(got, "2 RTTs") || strings.Contains(got, "edge-caps") {
		t.Errorf("flat header = %q", got)
	}
	hop, err := AxesSpec{Hops: twoHopSpec, EdgeCaps: "10Gbps,60Gbps", WANRTTs: "30ms"}.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	got := GridHeader(hop)
	if !strings.Contains(got, "2 edge-caps") || !strings.Contains(got, "1 wan-rtts") ||
		!strings.Contains(got, "2 cells") {
		t.Errorf("multi-hop header = %q", got)
	}
}
