package workload

// The scenario-grid subsystem: N-dimensional sweep grids over the full
// operating envelope — concurrency × parallel flows × transfer size ×
// base RTT × bottleneck buffer × congestion control × cross-traffic loss
// pressure — instead of only Table 2's concurrency/flow plane. An Axes
// value lowers to a deterministic stream of GridCells, each a runnable
// Experiment, executed by one engine-per-worker pool; the Table 2
// sweep (DefaultSweep) is the grid with singleton network axes.
// Cross-facility studies (George et al. 2025) show stream-vs-store
// decisions flip across exactly these axes, so the break-even analysis
// must cover them.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// Axes describes an N-dimensional scenario grid. The Table 2 plane
// (Concurrencies × ParallelFlows) and TransferSizes must be non-empty;
// the network axes (RTTs, Buffers, CCs, CrossFractions) may be left nil,
// in which case the corresponding Net field supplies a single point. All
// other Net fields (capacity, MSS, seed, cross-traffic shape, ...) are
// shared by every cell.
type Axes struct {
	// Duration is how long clients keep spawning in every cell.
	Duration time.Duration
	// Concurrencies is clients spawned per second (Table 2: 1–8).
	Concurrencies []int
	// ParallelFlows is P, TCP flows per client (Table 2: 2, 4, 8).
	ParallelFlows []int
	// TransferSizes is the per-client volume axis.
	TransferSizes []units.ByteSize
	// RTTs sweeps the uncongested round-trip time.
	RTTs []time.Duration
	// Buffers sweeps the bottleneck drop-tail queue; 0 selects tcpsim's
	// default (half a bandwidth-delay product at that cell's RTT).
	Buffers []units.ByteSize
	// CCs sweeps the congestion-control algorithm.
	CCs []tcpsim.CongestionControl
	// CrossFractions sweeps constant background cross-traffic load — the
	// model's loss-pressure axis: higher fractions shrink the residual
	// capacity and deepen buffer-overflow loss.
	CrossFractions []float64
	// Strategy selects the spawning mode for every cell.
	Strategy Strategy
	// Net is the base network configuration; axis values override
	// BaseRTT, Buffer, CC, and CrossFraction per cell. When Path is
	// set, Net supplies only the endpoint parameters (MSS, initial
	// window, RTO, seed, ...) — the link parameters come from the path
	// composition.
	Net tcpsim.Config
	// Path, when non-empty, describes the edge→WAN→facility hop chain
	// instead of Net's single bottleneck link. A 1-hop Path is folded
	// into Net by normalized() and is bit-identical to the equivalent
	// flat Net; a multi-hop Path switches the grid to the hop axes
	// below and composes each point down to its effective bottleneck.
	Path tcpsim.Path
	// EdgeCaps sweeps the edge uplink capacity (multi-hop only;
	// requires an edge hop in Path).
	EdgeCaps []units.BitRate
	// WANRTTs sweeps the WAN segment RTT (multi-hop only; requires a
	// WAN hop in Path).
	WANRTTs []time.Duration
	// IngressBuffers sweeps the facility ingress drop-tail queue; 0
	// selects tcpsim's default (multi-hop only; requires an ingress
	// hop in Path).
	IngressBuffers []units.ByteSize
}

// multiHop reports whether the grid sweeps a hop chain rather than a
// single bottleneck link. Exactly len(Path) > 1: a 1-hop Path is the
// flat link written differently and is folded away by normalized().
func (a Axes) multiHop() bool { return len(a.Path) > 1 }

// normalized composes any Path into Net and fills empty axes with their
// singletons from the link-axis table. A Path of at most one hop is then
// dropped: a 1-hop grid becomes indistinguishable from the flat grid (same
// fingerprint, seeds, rows and cache records). A multi-hop Path keeps its
// hops, and its hop axes fill with the path's own values.
func (a Axes) normalized() Axes {
	a.Net = a.Path.Effective(a.Net)
	if !a.multiHop() {
		a.Path = nil
	}
	a.RTTs = rttAxis.filled(a.Path, a.Net, a.RTTs)
	a.Buffers = bufferAxis.filled(a.Path, a.Net, a.Buffers)
	a.CrossFractions = crossAxis.filled(a.Path, a.Net, a.CrossFractions)
	a.EdgeCaps = edgeCapAxis.filled(a.Path, a.Net, a.EdgeCaps)
	a.WANRTTs = wanRTTAxis.filled(a.Path, a.Net, a.WANRTTs)
	a.IngressBuffers = ingressBufferAxis.filled(a.Path, a.Net, a.IngressBuffers)
	if len(a.CCs) == 0 {
		a.CCs = []tcpsim.CongestionControl{a.Net.CC}
	}
	return a
}

// linkAxis is one row of the link-axis table: one of the six axes of the
// network link, and the rules Validate and normalized() apply to it. A
// flat axis (RTTs, Buffers, CrossFractions) applies on a flat grid; on a
// multi-hop grid it may hold only the composed singleton normalized()
// fills in. A hop axis (EdgeCaps, WANRTTs, IngressBuffers) applies on a
// multi-hop grid whose path has its hop; without the hop it may hold only
// the {0} placeholder, and on a flat grid nothing at all.
type linkAxis[T comparable] struct {
	hop  bool           // a hop axis rather than a flat one
	role tcpsim.HopRole // the hop a hop axis sweeps
	// fill is the singleton normalized() puts in an empty axis: the
	// composed link's value, or the hop's own (0 for an absent hop).
	fill func(link tcpsim.Config, h tcpsim.Hop) T
	// inRange checks each value of a hop axis where it applies.
	inRange func(T) bool
	// misplaced and outOfRange are the exact rejection texts.
	misplaced, outOfRange string
}

// The link-axis table, in Validate's check order.
var (
	rttAxis = linkAxis[time.Duration]{
		fill:      func(link tcpsim.Config, _ tcpsim.Hop) time.Duration { return link.BaseRTT },
		misplaced: "workload: multi-hop grids sweep WANRTTs, not the flat RTTs axis",
	}
	bufferAxis = linkAxis[units.ByteSize]{
		fill:      func(link tcpsim.Config, _ tcpsim.Hop) units.ByteSize { return link.Buffer },
		misplaced: "workload: multi-hop grids sweep IngressBuffers, not the flat Buffers axis",
	}
	crossAxis = linkAxis[float64]{
		fill:      func(link tcpsim.Config, _ tcpsim.Hop) float64 { return link.CrossFraction },
		misplaced: "workload: multi-hop grids fix cross-traffic per hop; the flat CrossFractions axis does not apply",
	}
	edgeCapAxis = linkAxis[units.BitRate]{
		hop: true, role: tcpsim.HopEdge,
		fill:       func(_ tcpsim.Config, h tcpsim.Hop) units.BitRate { return h.Capacity },
		inRange:    func(c units.BitRate) bool { return c > 0 },
		misplaced:  "workload: EdgeCaps axis requires an edge hop in the path",
		outOfRange: "workload: EdgeCaps values must be positive",
	}
	wanRTTAxis = linkAxis[time.Duration]{
		hop: true, role: tcpsim.HopWAN,
		fill:       func(_ tcpsim.Config, h tcpsim.Hop) time.Duration { return h.RTT },
		inRange:    func(r time.Duration) bool { return r > 0 },
		misplaced:  "workload: WANRTTs axis requires a wan hop in the path",
		outOfRange: "workload: WANRTTs values must be positive",
	}
	ingressBufferAxis = linkAxis[units.ByteSize]{
		hop: true, role: tcpsim.HopIngress,
		fill:       func(_ tcpsim.Config, h tcpsim.Hop) units.ByteSize { return h.Buffer },
		inRange:    func(b units.ByteSize) bool { return b >= 0 },
		misplaced:  "workload: IngressBuffers axis requires an ingress hop in the path",
		outOfRange: "workload: IngressBuffers values must be non-negative",
	}
)

// check returns the rejection text for the axis values vals on a grid
// over path p whose composed base link is link, or "" when they pass.
func (r linkAxis[T]) check(p tcpsim.Path, link tcpsim.Config, vals []T) string {
	multi := len(p) > 1
	h, hasHop := p.Hop(r.role)
	switch {
	case r.hop && !multi:
		if len(vals) > 0 {
			return "workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path"
		}
	case r.hop && hasHop:
		for _, v := range vals {
			if !r.inRange(v) {
				return r.outOfRange
			}
		}
	case multi:
		if len(vals) > 1 || (len(vals) == 1 && vals[0] != r.fill(link, h)) {
			return r.misplaced
		}
	}
	return ""
}

// filled returns vals, or the singleton normalized() puts in their
// place when they are empty and the axis belongs to the grid (hop axes
// stay empty on a flat grid). p and link are already normalized.
func (r linkAxis[T]) filled(p tcpsim.Path, link tcpsim.Config, vals []T) []T {
	if len(vals) > 0 || (r.hop && len(p) < 2) {
		return vals
	}
	h, _ := p.Hop(r.role)
	return []T{r.fill(link, h)}
}

// Validate is the one gate for everything a grid's cells can hold. It
// checks that any Path is structurally sound, that the six link axes
// follow the link-axis table, that the Table 2 plane and sizes are
// non-empty and that the grid's cell count fits an int; then that every
// cell passes Experiment.Validate, the one home of the per-cell rules, so
// an accepted grid never fails a cell before it simulates. Validate is
// stable under normalized(): a normalized Axes validates iff its source
// did.
func (a Axes) Validate() error {
	if err := a.Path.Validate(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	link := a.Path.Effective(a.Net)
	for _, msg := range [...]string{
		rttAxis.check(a.Path, link, a.RTTs),
		bufferAxis.check(a.Path, link, a.Buffers),
		crossAxis.check(a.Path, link, a.CrossFractions),
		edgeCapAxis.check(a.Path, link, a.EdgeCaps),
		wanRTTAxis.check(a.Path, link, a.WANRTTs),
		ingressBufferAxis.check(a.Path, link, a.IngressBuffers),
	} {
		if msg != "" {
			return errors.New(msg)
		}
	}
	switch {
	case len(a.Concurrencies) == 0:
		return fmt.Errorf("workload: empty grid axis Concurrencies")
	case len(a.ParallelFlows) == 0:
		return fmt.Errorf("workload: empty grid axis ParallelFlows")
	case len(a.TransferSizes) == 0:
		return fmt.Errorf("workload: empty grid axis TransferSizes")
	}
	// Past the checks above, every axis the grid does not sweep holds at
	// most one value, so the cell count is the product of all the axis
	// lengths, an empty axis counting once. It must fit an int: Size,
	// Cells and every caller's cell budget rely on it.
	cells := 1
	for _, n := range [...]int{len(a.Concurrencies), len(a.ParallelFlows), len(a.TransferSizes),
		len(a.RTTs), len(a.Buffers), len(a.CCs), len(a.CrossFractions),
		len(a.EdgeCaps), len(a.WANRTTs), len(a.IngressBuffers)} {
		n = max(n, 1)
		if cells > math.MaxInt/n {
			return errors.New("workload: grid cell count overflows int")
		}
		cells *= n
	}
	a.Net = link // Validate's own copy: cells read the composed link, as normalized() leaves it
	return a.validateCells()
}

// validateCells applies Experiment.Validate to every cell of a grid that
// passed Validate's structural checks, without enumerating the cells.
// Every per-cell rule reads one cell field, except the flow bound, which
// grows with concurrency and flows. So it checks a base cell, the Table
// 2 plane's largest cell, and the base cell moved along each axis in
// turn. On a multi-hop grid a WAN RTT moves only the summed RTT, and an
// edge capacity picks the bottleneck hop whose link the point takes; an
// ingress buffer matters only through that bottleneck, so the buffers
// are checked once per bottleneck the edge capacities pick. The work is
// linear in the axis lengths, and on a flat grid allocation-free.
func (a *Axes) validateCells() error {
	n := a
	check := func(c GridCell) error { return n.unseeded(c).Validate() }
	c0 := GridCell{
		TransferSize:  a.TransferSizes[0],
		CC:            firstOr(a.CCs, a.Net.CC),
		Concurrency:   slices.Min(a.Concurrencies),
		ParallelFlows: slices.Min(a.ParallelFlows),
	}
	var err error
	if a.multiHop() {
		norm := a.normalized()
		n = &norm
		caps, rtts, bufs := n.linkAxes()
		c0 = n.atHops(c0, caps[0], rtts[0], bufs[0])
		err = cmp.Or(check(c0),
			checkAlong(check, c0, caps, func(c *GridCell, v units.BitRate) { *c = n.atHops(*c, v, rtts[0], bufs[0]) }),
			checkAlong(check, c0, rtts, func(c *GridCell, v time.Duration) { *c = n.atHops(*c, caps[0], v, bufs[0]) }))
		var seen [3]bool // by bottleneck role
		for _, e := range caps {
			if r := n.Path.WithAxes(e, 0, 0).Bottleneck().Role; !seen[r] && err == nil {
				seen[r] = true
				err = checkAlong(check, c0, bufs, func(c *GridCell, v units.ByteSize) { *c = n.atHops(*c, e, rtts[0], v) })
			}
		}
	} else {
		c0.RTT = firstOr(a.RTTs, a.Net.BaseRTT)
		c0.Buffer = firstOr(a.Buffers, a.Net.Buffer)
		c0.CrossFraction = firstOr(a.CrossFractions, a.Net.CrossFraction)
		err = cmp.Or(check(c0),
			checkAlong(check, c0, a.RTTs, func(c *GridCell, v time.Duration) { c.RTT = v }),
			checkAlong(check, c0, a.Buffers, func(c *GridCell, v units.ByteSize) { c.Buffer = v }),
			checkAlong(check, c0, a.CrossFractions, func(c *GridCell, v float64) { c.CrossFraction = v }))
	}
	err = cmp.Or(err,
		checkAlong(check, c0, a.TransferSizes, func(c *GridCell, v units.ByteSize) { c.TransferSize = v }),
		checkAlong(check, c0, a.CCs, func(c *GridCell, v tcpsim.CongestionControl) { c.CC = v }))
	hi := c0
	hi.Concurrency, hi.ParallelFlows = slices.Max(a.Concurrencies), slices.Max(a.ParallelFlows)
	if err == nil && hi != c0 {
		err = check(hi)
	}
	return err
}

// checkAlong checks cell c moved along one axis: set to each of vals in
// turn but the first, which c already holds or was checked at. It
// returns the first failure.
func checkAlong[T any](check func(GridCell) error, c GridCell, vals []T, set func(*GridCell, T)) error {
	for _, v := range vals[min(1, len(vals)):] {
		set(&c, v)
		if err := check(c); err != nil {
			return err
		}
	}
	return nil
}

// firstOr returns the first of vals, or fill when vals is empty.
func firstOr[T any](vals []T, fill T) T {
	if len(vals) > 0 {
		return vals[0]
	}
	return fill
}

// atHops returns c moved to the network point (ecap, wanRTT, ingressBuf)
// of a normalized multi-hop grid: the point's path composed down to its
// bottleneck, plus the hop knobs that made it.
func (a Axes) atHops(c GridCell, ecap units.BitRate, wanRTT time.Duration, ingressBuf units.ByteSize) GridCell {
	eff := a.Path.WithAxes(ecap, wanRTT, ingressBuf).Effective(a.Net)
	c.RTT, c.Buffer, c.CrossFraction, c.Capacity = eff.BaseRTT, eff.Buffer, eff.CrossFraction, eff.Capacity
	c.EdgeCap, c.WANRTT, c.IngressBuffer = ecap, wanRTT, ingressBuf
	return c
}

// flatCaps is a flat grid's capacity axis: the base link's capacity only.
var flatCaps = []units.BitRate{0}

// linkAxes returns a normalized grid's link-axis triple, the axes its
// network points sweep between size and CC: ({0}, RTTs, Buffers) on a
// flat grid, (EdgeCaps, WANRTTs, IngressBuffers) on a multi-hop one.
func (a Axes) linkAxes() ([]units.BitRate, []time.Duration, []units.ByteSize) {
	if a.multiHop() {
		return a.EdgeCaps, a.WANRTTs, a.IngressBuffers
	}
	return flatCaps, a.RTTs, a.Buffers
}

// NetPoints returns the number of distinct network points: the size of
// the TransferSizes × link-axis triple × CCs × CrossFractions product
// (CrossFractions is a singleton on a multi-hop grid).
func (a Axes) NetPoints() int {
	n := a.normalized()
	caps, rtts, bufs := n.linkAxes()
	return len(n.TransferSizes) * len(caps) * len(rtts) * len(bufs) * len(n.CCs) * len(n.CrossFractions)
}

// Size returns the total number of cells in the grid.
func (a Axes) Size() int {
	return a.NetPoints() * len(a.Concurrencies) * len(a.ParallelFlows)
}

// GridCell is one grid coordinate: a network point plus one Table 2
// plane position.
type GridCell struct {
	// Index is the cell's row position in GridResult.Rows.
	Index         int
	TransferSize  units.ByteSize
	RTT           time.Duration
	Buffer        units.ByteSize // 0 = tcpsim default (half BDP)
	CC            tcpsim.CongestionControl
	CrossFraction float64
	Concurrency   int
	ParallelFlows int
	// Capacity is the composed bottleneck's capacity on a multi-hop
	// grid. Flat cells leave it 0, so the base Net's capacity applies and
	// their experiments stay bit-identical to the pre-path layout.
	Capacity units.BitRate
	// EdgeCap, WANRTT, and IngressBuffer are a multi-hop cell's hop
	// knobs (0 when the hop is absent or the grid is flat); RTT, Buffer,
	// Capacity, and CrossFraction above hold the composed link they made.
	EdgeCap       units.BitRate
	WANRTT        time.Duration
	IngressBuffer units.ByteSize
}

// BufferLabel names a buffer-axis value; 0 is tcpsim's half-BDP
// default. Every grid renderer and error message names buffers through
// it, so "auto" means the same thing everywhere.
func BufferLabel(b units.ByteSize) string {
	if b == 0 {
		return "auto"
	}
	return b.String()
}

// Cells enumerates the grid in deterministic row order: sizes, then the
// link-axis triple, CCs and cross fractions, then the Table 2 plane in
// sweep order (flow counts outer, concurrencies inner). A flat grid's
// triple is ({0}, RTTs, Buffers), so with singleton network axes this is
// the Table 2 sweep's order. A multi-hop grid's triple is (EdgeCaps,
// WANRTTs, IngressBuffers) and its cross axis a singleton;
// each hop point is composed down to its bottleneck, and the cell stores
// the composed coordinates, which alone key its seed and cell record.
func (a Axes) Cells() []GridCell {
	n := a.normalized()
	caps, rtts, bufs := n.linkAxes()
	cells := make([]GridCell, 0, n.Size())
	for _, size := range n.TransferSizes {
		for _, ecap := range caps {
			for _, rtt := range rtts {
				for _, buf := range bufs {
					pt := GridCell{TransferSize: size, RTT: rtt, Buffer: buf}
					if n.multiHop() {
						pt = n.atHops(GridCell{TransferSize: size}, ecap, rtt, buf)
					}
					for _, cc := range n.CCs {
						for _, cross := range n.CrossFractions {
							pt.CC = cc
							if !n.multiHop() {
								pt.CrossFraction = cross
							}
							for _, p := range n.ParallelFlows {
								for _, conc := range n.Concurrencies {
									c := pt
									c.Index, c.Concurrency, c.ParallelFlows = len(cells), conc, p
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// netSeedStride separates the seed ranges of distinct network points, so
// every cell of the grid gets an independent loss-randomization seed.
const netSeedStride = 1_000_003

// netPointSeedOffset returns the seed offset of a cell's network point.
// The offset is intrinsic to the point's coordinates relative to the
// base Net — never to the point's position within any particular Axes —
// so the same cell carries the same seed in every grid that contains it.
// That invariance is what lets the cell store serve a sub-grid from a
// superset grid's records bit-identically to a cold run of the sub-grid.
// Two anchors:
//
//   - The base network point (RTT, buffer, CC and cross fraction all
//     equal to the Net's own values) has offset 0, so a grid with
//     singleton network axes keeps the Table 2 sweep's seed formula
//     exactly.
//   - Transfer size never enters the seed — the sweep formula has no
//     size term, and the grid preserves that property: cells differing
//     only in size deliberately share their loss-randomization stream,
//     like re-running one testbed configuration with more data.
func (a Axes) netPointSeedOffset(c GridCell) int64 {
	if c.RTT == a.Net.BaseRTT && c.Buffer == a.Net.Buffer &&
		c.CC == a.Net.CC && c.CrossFraction == a.Net.CrossFraction {
		return 0
	}
	// Inline FNV-64a over the point's canonical rendering — computed once
	// per cell per warm open, so the hash runs on a stack buffer with no
	// hasher or fmt allocations. The bytes hashed (and therefore every
	// seed, and every record keyed by it) are pinned byte-for-byte by
	// TestNetPointSeedOffsetMatchesReference against the fmt/fnv
	// reference this replaced.
	var arr [96]byte
	b := arr[:0]
	b = append(b, "rtt="...)
	b = strconv.AppendInt(b, int64(c.RTT), 10)
	b = append(b, ";buf="...)
	b = strconv.AppendFloat(b, float64(c.Buffer), 'g', -1, 64)
	b = append(b, ";cc="...)
	b = strconv.AppendInt(b, int64(c.CC), 10)
	b = append(b, ";cross="...)
	b = strconv.AppendFloat(b, c.CrossFraction, 'g', -1, 64)
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for _, x := range b {
		h ^= uint64(x)
		h *= fnvPrime64
	}
	// Spread offsets at least netSeedStride apart so they cannot collide
	// with the Table 2 plane's conc*100+P term; +1 keeps every non-base
	// point away from the base point's 0. Unlike seeds numbered by a
	// point's position in the grid, hashed offsets can in principle
	// collide across points — the 2⁴²
	// range keeps that below ~10⁻⁵ even for a 10⁴-point grid (a
	// collision would correlate two cells' loss randomization, never
	// corrupt results or the cache), and any grid-aware resolution would
	// reintroduce the position dependence this function exists to remove.
	return int64(h%(1<<42)+1) * netSeedStride
}

// Experiment lowers one cell of a normalized grid (GridResult.Axes) to
// a runnable Experiment with its deterministic per-cell seed: Run on it
// reproduces the cell's row, with the full per-client results.
func (a Axes) Experiment(c GridCell) Experiment {
	e := a.unseeded(c)
	e.Net.Seed = a.Net.Seed + int64(c.Concurrency*100+c.ParallelFlows) + a.netPointSeedOffset(c)
	return e
}

// unseeded is Experiment without the per-cell seed, which no validation
// rule reads and which costs most of Experiment.
func (a *Axes) unseeded(c GridCell) Experiment {
	net := a.Net
	net.BaseRTT = c.RTT
	net.Buffer = c.Buffer
	net.CC = c.CC
	net.CrossFraction = c.CrossFraction
	if c.Capacity > 0 {
		// Multi-hop cells carry their composed bottleneck capacity; flat
		// cells leave it 0, keeping their experiments bit-identical to
		// the pre-path layout. Like transfer size, capacity never enters
		// the seed (the sweep formula has no capacity term either) — but
		// it does enter the cell fingerprint, so records never collide.
		net.Capacity = c.Capacity
	}
	return Experiment{
		Duration:      a.Duration,
		Concurrency:   c.Concurrency,
		ParallelFlows: c.ParallelFlows,
		TransferSize:  c.TransferSize,
		Strategy:      a.Strategy,
		Net:           net,
	}
}

// Fingerprint returns a canonical key covering every Axes field that
// affects grid output: GridCache's memo key. The "grid;" prefix keeps
// it disjoint from cellFingerprint's "cell;" keys.
func (a Axes) Fingerprint() string {
	n := a.normalized()
	b := make([]byte, 0, 512)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	b = fmt.Appendf(b, "grid;dur=%d", int64(n.Duration))
	b = appendList(b, ";conc=", n.Concurrencies, appendInt)
	b = appendList(b, ";pflows=", n.ParallelFlows, appendInt)
	b = appendList(b, ";sizes=", n.TransferSizes, appendFloat)
	b = appendList(b, ";rtts=", n.RTTs, appendInt)
	b = appendList(b, ";bufs=", n.Buffers, appendFloat)
	b = appendList(b, ";ccs=", n.CCs, appendInt)
	b = appendList(b, ";crosses=", n.CrossFractions, appendFloat)
	// Hop terms render only on multi-hop grids: a 1-hop path has been
	// folded into Net by normalized(), so its fingerprint — and hence
	// its memo entry and every cell record — is byte-identical to the
	// equivalent flat grid's.
	if n.multiHop() {
		b = append(b, ";hops="...)
		for i, h := range n.Path {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(b, h.Role.String()...)
			b = appendFloat(append(b, ':'), h.Capacity)
			b = appendInt(append(b, ':'), h.RTT)
			b = appendFloat(append(b, ':'), h.Buffer)
			b = appendFloat(append(b, ':'), h.CrossFraction)
		}
		b = appendList(b, ";ecaps=", n.EdgeCaps, appendFloat)
		b = appendList(b, ";wrtts=", n.WANRTTs, appendInt)
		b = appendList(b, ";ibufs=", n.IngressBuffers, appendFloat)
	}
	net := n.Net
	// keep, maxt, rq, xper, xduty and xjit are fixed tokens: rows no
	// longer carry client results, and the simulator's horizon, queue
	// recorder and on/off cross-traffic wave are gone, but archived
	// fingerprints pin the terms at their old production values.
	b = fmt.Appendf(b, ";strat=%d;keep=false", int(n.Strategy))
	b = fmt.Appendf(b, ";cap=%s;mss=%s;icw=%d;rto=%d;seed=%d;maxt=0;rq=false",
		f(float64(net.Capacity)), f(float64(net.MSS)),
		net.InitCwndSegments, int64(net.RTO), net.Seed)
	b = append(b, ";xper=0;xduty=0;xjit=false"...)
	return string(b)
}

// appendList appends key and then vals, comma-separated — one term of a
// grid fingerprint.
func appendList[T any](b []byte, key string, vals []T, appendVal func([]byte, T) []byte) []byte {
	b = append(b, key...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVal(b, v)
	}
	return b
}

// appendInt and appendFloat render one fingerprint value exactly as
// strconv.Itoa/FormatInt and FormatFloat(x, 'g', -1, 64) do.
func appendInt[T ~int | ~int64](b []byte, v T) []byte { return strconv.AppendInt(b, int64(v), 10) }
func appendFloat[T ~float64](b []byte, v T) []byte {
	return strconv.AppendFloat(b, float64(v), 'g', -1, 64)
}

// GridRow is one grid cell's outcome: the cell coordinate plus the same
// measurements a Table 2 sweep row carries.
type GridRow struct {
	Cell GridCell
	SweepRow
}

// EffectiveRate returns the cell's measured effective transfer rate:
// the cell's transfer size over its worst-case FCT, capped at the link
// capacity — the paper's conservative α, the rate a planner should
// assume under that cell's congestion regime. It returns 0 when the row
// carries no positive worst-case FCT (a defective or unpopulated row).
func (r GridRow) EffectiveRate(capacity units.BitRate) units.ByteRate {
	worst := r.Worst.Seconds()
	if worst <= 0 {
		return 0
	}
	rate := units.ByteRate(r.Cell.TransferSize.Bytes() / worst)
	if capRate := capacity.ByteRate(); rate > capRate {
		rate = capRate
	}
	return rate
}

// GridResult is a completed scenario grid.
type GridResult struct {
	// Axes is the normalized grid description (network axes filled in).
	Axes Axes
	Rows []GridRow
}

// RunGrid executes every cell serially on one reused engine; rows come
// back in Cells order. RunGridParallel is bit-identical on a pool.
func RunGrid(a Axes) (*GridResult, error) { return RunGridParallel(a, 1) }

// RunGridParallel executes the grid's cells across a worker pool with
// one engine per worker. Every cell is seeded deterministically from its
// coordinates, so the result is bit-identical for any worker count; rows
// come back in Cells order. workers <= 0 selects GOMAXPROCS.
func RunGridParallel(a Axes, workers int) (*GridResult, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	a = a.normalized()
	cells := a.Cells()
	rows := make([]GridRow, len(cells))
	if err := executeCells(a, cells, rows, workers, nil); err != nil {
		return nil, err
	}
	return &GridResult{Axes: a, Rows: rows}, nil
}

// executeCells runs the given cells (any subset of a's grid) on an
// engine-per-worker pool, writing each outcome into rows[c.Index].
// onRow, when non-nil, is invoked from the worker goroutine after a
// cell's row is populated — the incremental planner persists freshly
// computed cell records there, overlapping cache writes with the
// remaining simulations. Cells are seeded from their own coordinates, so
// the rows are bit-identical for any worker count and any cell subset.
// workers <= 0 selects GOMAXPROCS.
func executeCells(a Axes, cells []GridCell, rows []GridRow, workers int, onRow func(GridCell)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One engine and one assembly scratch per worker: cells share
			// their buffers, so neither the congestion loop nor the
			// spec/result assembly allocates after the first cell.
			eng := tcpsim.NewEngine()
			var sc runScratch
			for i := range work {
				c := cells[i]
				row, err := runExperimentRow(a.Experiment(c), eng, &sc)
				rows[c.Index] = GridRow{Cell: c, SweepRow: row}
				errs[i] = err
				if err == nil && onRow != nil {
					onRow(c)
				}
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			c := cells[i]
			return fmt.Errorf("workload: grid cell %d (conc=%d P=%d size=%v rtt=%v buf=%s cc=%v cross=%g): %w",
				c.Index, c.Concurrency, c.ParallelFlows, c.TransferSize, c.RTT, BufferLabel(c.Buffer), c.CC, c.CrossFraction, err)
		}
	}
	return nil
}

// runExperimentRow executes one experiment and condenses it into a
// SweepRow — the one place a row is built, so every grid and cache path
// produces identical rows for identical experiments. The assembly
// reuses the worker's scratch end to end and the only per-cell
// allocation is the row's escaping TransferTimes slice
// (TestCellAssemblyAllocs gates this).
func runExperimentRow(e Experiment, eng *tcpsim.Engine, sc *runScratch) (SweepRow, error) {
	res, err := runWithEngineScratch(e, eng, sc)
	if err != nil {
		return SweepRow{}, err
	}
	times := make([]float64, len(res.Clients))
	durations := &sc.sample
	durations.Reset()
	for i, c := range res.Clients {
		times[i] = c.TransferTime()
		durations.Add(times[i])
	}
	p50, _ := durations.Quantile(0.50)
	p90, _ := durations.Quantile(0.90)
	p99, _ := durations.Quantile(0.99)
	return SweepRow{
		Concurrency:   e.Concurrency,
		ParallelFlows: e.ParallelFlows,
		OfferedLoad:   e.OfferedLoad(),
		Utilization:   res.MeanUtilization,
		Worst:         res.WorstFCT,
		P50:           units.Seconds(p50),
		P90:           units.Seconds(p90),
		P99:           units.Seconds(p99),
		SSS:           res.SSS,
		TransferTimes: times,
	}, nil
}
