package scenario

// AxesSpec is the canonical axis-set vocabulary: the comma-separated
// axis lists that the -grid modes of cmd/ssslab and cmd/streamdecide
// share, the JSON fields a decided service request speaks, and the grid
// description portfolio archives are keyed by. One spec, three
// surfaces: -rtts 8ms,16ms,64ms -buffers auto,2MB -ccs reno,cubic
// -crosses 0,0.3 -concs 1,4,8 -pflows 2,8, plus the multi-hop path
// axes -hops edge:10Gbps:2ms:1MB,wan:100Gbps:30ms:8MB:0.3,...
// -edge-caps 10Gbps,60Gbps -wan-rtts 20ms,60ms -ingress-buffers 4MB.

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

// AxesSpec holds raw CLI axis lists. An empty field leaves the
// corresponding axis of the base grid untouched; a set field replaces
// it. Each JSON tag is the flag name with '-' spelled '_' (see
// axisFlags), so a decided service request speaks the same axis
// vocabulary as the CLIs — "concs" in a JSON body and -concs on a
// command line parse through the same code.
// The hop fields (Hops, EdgeCaps, WANRTTs, IngressBuffers) are the
// multi-hop extension and require "schema":"v2" in service bodies; see
// V2Fields.
type AxesSpec struct {
	Concs   string `json:"concs,omitempty"`   // e.g. "1,4,8"
	Flows   string `json:"pflows,omitempty"`  // e.g. "2,8"
	Sizes   string `json:"sizes,omitempty"`   // e.g. "0.5GB,2GB"
	RTTs    string `json:"rtts,omitempty"`    // e.g. "8ms,16ms,64ms"
	Buffers string `json:"buffers,omitempty"` // e.g. "auto,512KB,2MB" ("auto" = half-BDP default)
	CCs     string `json:"ccs,omitempty"`     // e.g. "reno,cubic"
	Crosses string `json:"crosses,omitempty"` // e.g. "0,0.3,0.6"
	// Hops is the path topology: comma-joined hop specs of the form
	// role:capacity:rtt[:buffer[:cross]], roles in edge→wan→ingress
	// order. One hop is exactly the flat link written differently; two
	// or more make the grid multi-hop.
	Hops string `json:"hops,omitempty"`
	// EdgeCaps sweeps the edge hop's uplink capacity (multi-hop only).
	EdgeCaps string `json:"edge_caps,omitempty"` // e.g. "10Gbps,60Gbps"
	// WANRTTs sweeps the WAN hop's RTT (multi-hop only).
	WANRTTs string `json:"wan_rtts,omitempty"` // e.g. "20ms,60ms"
	// IngressBuffers sweeps the facility-ingress queue (multi-hop only).
	IngressBuffers string `json:"ingress_buffers,omitempty"` // e.g. "auto,4MB"
}

// axisFlag is one row of the axis vocabulary: the flag name (its JSON
// name is the same with '-' spelled '_'), the help text, whether a
// service body needs schema v2 to set it, the AxesSpec field holding
// its raw list, and how a parsed list lands on workload.Axes.
type axisFlag struct {
	name  string
	help  string
	v2    bool
	field func(*AxesSpec) *string
	apply func(a *workload.Axes, name, list string) error
}

// axisFlags is the one declaration of every axis flag, in flag order:
// Register, V2Fields and Apply all walk it, so no surface can list a
// different vocabulary.
var axisFlags = [...]axisFlag{
	{"concs", "grid axis: concurrency list, e.g. 1,4,8", false,
		func(f *AxesSpec) *string { return &f.Concs },
		func(a *workload.Axes, n, s string) error { return setList(&a.Concurrencies, n, s, strconv.Atoi) }},
	{"pflows", "grid axis: parallel-flow list, e.g. 2,8", false,
		func(f *AxesSpec) *string { return &f.Flows },
		func(a *workload.Axes, n, s string) error { return setList(&a.ParallelFlows, n, s, strconv.Atoi) }},
	{"sizes", "grid axis: transfer-size list, e.g. 0.5GB,2GB", false,
		func(f *AxesSpec) *string { return &f.Sizes },
		func(a *workload.Axes, n, s string) error { return setList(&a.TransferSizes, n, s, units.ParseByteSize) }},
	{"rtts", "grid axis: base RTT list, e.g. 8ms,16ms,64ms", false,
		func(f *AxesSpec) *string { return &f.RTTs },
		func(a *workload.Axes, n, s string) error { return setList(&a.RTTs, n, s, time.ParseDuration) }},
	{"buffers", "grid axis: bottleneck buffer list, e.g. auto,2MB", false,
		func(f *AxesSpec) *string { return &f.Buffers },
		func(a *workload.Axes, n, s string) error { return setList(&a.Buffers, n, s, parseBuffer) }},
	{"ccs", "grid axis: congestion-control list (reno, cubic)", false,
		func(f *AxesSpec) *string { return &f.CCs },
		func(a *workload.Axes, n, s string) error { return setList(&a.CCs, n, s, tcpsim.ParseCongestionControl) }},
	{"crosses", "grid axis: cross-traffic fraction list, e.g. 0,0.3", false,
		func(f *AxesSpec) *string { return &f.Crosses },
		func(a *workload.Axes, n, s string) error { return setList(&a.CrossFractions, n, s, parseFloat) }},
	{"hops", "path topology: role:capacity:rtt[:buffer[:cross]] hops, e.g. edge:10Gbps:2ms:1MB,wan:100Gbps:30ms:8MB:0.3", true,
		func(f *AxesSpec) *string { return &f.Hops },
		func(a *workload.Axes, _, s string) error {
			path, err := ParsePath(s)
			if len(path) > 0 {
				a.Path = path
			}
			return err
		}},
	{"edge-caps", "hop axis: edge uplink capacity list, e.g. 10Gbps,60Gbps", true,
		func(f *AxesSpec) *string { return &f.EdgeCaps },
		func(a *workload.Axes, n, s string) error { return setList(&a.EdgeCaps, n, s, units.ParseBitRate) }},
	{"wan-rtts", "hop axis: WAN RTT list, e.g. 20ms,60ms", true,
		func(f *AxesSpec) *string { return &f.WANRTTs },
		func(a *workload.Axes, n, s string) error { return setList(&a.WANRTTs, n, s, time.ParseDuration) }},
	{"ingress-buffers", "hop axis: facility-ingress buffer list, e.g. auto,4MB", true,
		func(f *AxesSpec) *string { return &f.IngressBuffers },
		func(a *workload.Axes, n, s string) error { return setList(&a.IngressBuffers, n, s, parseBuffer) }},
}

// Register installs the grid axis flags on a FlagSet. Every -grid CLI
// registers through here, so adding an axis (or renaming a flag) cannot
// leave the CLIs accepting different grid vocabularies.
func (f *AxesSpec) Register(fs *flag.FlagSet) {
	for _, r := range axisFlags {
		fs.StringVar(r.field(f), r.name, "", r.help)
	}
}

// V2Fields returns the JSON names of the set fields that belong to the
// service's schema v2 — the multi-hop vocabulary. A v1 body using any
// of them is rejected by name, so an old client cannot have hop axes
// silently ignored.
func (f AxesSpec) V2Fields() []string {
	var out []string
	for _, r := range axisFlags {
		if r.v2 && *r.field(&f) != "" {
			out = append(out, strings.ReplaceAll(r.name, "-", "_"))
		}
	}
	return out
}

// GridHeader summarizes a normalized grid's dimensions for CLI output
// (cache-returned GridResult.Axes values are always normalized).
// Multi-hop grids report their hop axes; flat grids keep the exact
// legacy wording.
func GridHeader(a workload.Axes) string {
	if len(a.Path) > 1 {
		return fmt.Sprintf("%d cells = %d sizes x %d edge-caps x %d wan-rtts x %d ingress-buffers x %d CCs x %d flows x %d conc",
			a.Size(), len(a.TransferSizes), len(a.EdgeCaps), len(a.WANRTTs), len(a.IngressBuffers),
			len(a.CCs), len(a.ParallelFlows), len(a.Concurrencies))
	}
	return fmt.Sprintf("%d cells = %d sizes x %d RTTs x %d buffers x %d CCs x %d cross x %d flows x %d conc",
		a.Size(), len(a.TransferSizes), len(a.RTTs), len(a.Buffers), len(a.CCs),
		len(a.CrossFractions), len(a.ParallelFlows), len(a.Concurrencies))
}

// parseFloat parses one cross-fraction token.
func parseFloat(tok string) (float64, error) { return strconv.ParseFloat(tok, 64) }

// parseBuffer parses one buffer-axis token; "auto" selects tcpsim's
// half-BDP default (ByteSize 0).
func parseBuffer(tok string) (units.ByteSize, error) {
	if tok == "auto" {
		return 0, nil
	}
	return units.ParseByteSize(tok)
}

// ParsePath parses a -hops topology spec: comma-joined hops, each
// role:capacity:rtt[:buffer[:cross]] with roles in edge→wan→ingress
// order. Buffer accepts "auto" (the half-BDP default). The parsed path
// is structurally validated, so a CLI or request error names the bad
// hop before any grid work starts. An empty spec parses to nil (flat).
func ParsePath(spec string) (tcpsim.Path, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var p tcpsim.Path
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.Split(tok, ":")
		if len(parts) < 3 || len(parts) > 5 {
			return nil, fmt.Errorf("scenario: -hops %q: want role:capacity:rtt[:buffer[:cross]]", tok)
		}
		role, err := tcpsim.ParseHopRole(parts[0])
		if err != nil {
			return nil, fmt.Errorf("scenario: -hops %q: %w", tok, err)
		}
		capacity, err := units.ParseBitRate(parts[1])
		if err != nil {
			return nil, fmt.Errorf("scenario: -hops %q: capacity: %w", tok, err)
		}
		rtt, err := time.ParseDuration(parts[2])
		if err != nil {
			return nil, fmt.Errorf("scenario: -hops %q: rtt: %w", tok, err)
		}
		h := tcpsim.Hop{Role: role, Capacity: capacity, RTT: rtt}
		if len(parts) >= 4 {
			if h.Buffer, err = parseBuffer(parts[3]); err != nil {
				return nil, fmt.Errorf("scenario: -hops %q: buffer: %w", tok, err)
			}
		}
		if len(parts) == 5 {
			if h.CrossFraction, err = strconv.ParseFloat(parts[4], 64); err != nil {
				return nil, fmt.Errorf("scenario: -hops %q: cross: %w", tok, err)
			}
		}
		p = append(p, h)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: -hops: %w", err)
	}
	return p, nil
}

// setList parses a comma-separated axis list with one value parser,
// trimming blanks, and when the list is non-empty replaces the grid
// axis *dst with it. Errors cite the list as flag -name.
func setList[T any](dst *[]T, name, s string, parse func(string) (T, error)) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var vals []T
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := parse(tok)
		if err != nil {
			return fmt.Errorf("scenario: -%s %q: %w", name, tok, err)
		}
		vals = append(vals, v)
	}
	if len(vals) > 0 {
		*dst = vals
	}
	return nil
}

// Apply parses the lists onto a base grid and returns the result. A
// parse error, reported for the first bad list in flag order, returns
// base unchanged.
func (f AxesSpec) Apply(base workload.Axes) (workload.Axes, error) {
	a := base
	for _, r := range axisFlags {
		if err := r.apply(&a, r.name, *r.field(&f)); err != nil {
			return base, err
		}
	}
	return a, nil
}
