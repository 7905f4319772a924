package workload

// The scenario-grid subsystem: N-dimensional sweep grids over the full
// operating envelope — concurrency × parallel flows × transfer size ×
// base RTT × bottleneck buffer × congestion control × cross-traffic loss
// pressure — instead of only Table 2's concurrency/flow plane. An Axes
// value lowers to a deterministic stream of GridCells, each a
// SweepConfig-compatible Experiment, executed by the same
// engine-per-worker pool as the Table 2 sweep; cross-facility studies
// (George et al. 2025) show stream-vs-store decisions flip across
// exactly these axes, so the break-even analysis must cover them.

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
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
	// CrossFractions sweeps background cross-traffic load — the model's
	// loss-pressure axis: higher fractions shrink the residual capacity
	// and deepen buffer-overflow loss. The wave shape (period, duty,
	// jitter) comes from Net.Cross.
	CrossFractions []float64
	// Strategy selects the spawning mode for every cell.
	Strategy Strategy
	// Net is the base network configuration; axis values override
	// BaseRTT, Buffer, CC, and Cross.Fraction per cell. When Path is
	// set, Net supplies only the endpoint parameters (MSS, initial
	// window, RTO, seed, cross-traffic wave shape, ...) — the link
	// parameters come from the path composition.
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
	// KeepClientResults retains full per-client results on every row
	// (see SweepConfig.KeepClientResults). Leave off for cached grids.
	KeepClientResults bool
}

// AxesFromSweep lowers a Table 2 sweep onto the grid: singleton network
// axes, identical cell ordering and per-cell seeds, hence bit-identical
// rows (TestGridMatchesSweep holds the grid against a serial reference
// sweep).
func AxesFromSweep(cfg SweepConfig) Axes {
	return Axes{
		Duration:          cfg.Duration,
		Concurrencies:     cfg.Concurrencies,
		ParallelFlows:     cfg.ParallelFlows,
		TransferSizes:     []units.ByteSize{cfg.TransferSize},
		Strategy:          cfg.Strategy,
		Net:               cfg.Net,
		KeepClientResults: cfg.KeepClientResults,
	}
}

// multiHop reports whether the grid sweeps a hop chain rather than a
// single bottleneck link. Exactly len(Path) > 1: a 1-hop Path is the
// flat link written differently and is folded away by normalized().
func (a Axes) multiHop() bool { return len(a.Path) > 1 }

// normalized fills empty network axes with the base Net's single point.
// A 1-hop Path is folded into Net here — after normalization the grid
// is indistinguishable from one described by a flat Net, which is the
// structural guarantee that single-hop paths stay bit-identical (same
// fingerprint, same seeds, same rows, same cache records). A multi-hop
// Path composes into Net's link parameters and fills the hop axes with
// the path's own values as singletons.
func (a Axes) normalized() Axes {
	if len(a.Path) == 1 {
		a.Net = a.Path.Effective(a.Net)
		a.Path = nil
	} else if a.multiHop() {
		a.Net = a.Path.Effective(a.Net)
		if len(a.EdgeCaps) == 0 {
			h, _ := a.Path.Hop(tcpsim.HopEdge)
			a.EdgeCaps = []units.BitRate{h.Capacity}
		}
		if len(a.WANRTTs) == 0 {
			h, _ := a.Path.Hop(tcpsim.HopWAN)
			a.WANRTTs = []time.Duration{h.RTT}
		}
		if len(a.IngressBuffers) == 0 {
			h, _ := a.Path.Hop(tcpsim.HopIngress)
			a.IngressBuffers = []units.ByteSize{h.Buffer}
		}
	}
	if len(a.RTTs) == 0 {
		a.RTTs = []time.Duration{a.Net.BaseRTT}
	}
	if len(a.Buffers) == 0 {
		a.Buffers = []units.ByteSize{a.Net.Buffer}
	}
	if len(a.CCs) == 0 {
		a.CCs = []tcpsim.CongestionControl{a.Net.CC}
	}
	if len(a.CrossFractions) == 0 {
		a.CrossFractions = []float64{a.Net.Cross.Fraction}
	}
	return a
}

// Validate checks that every axis has at least one value, that any Path
// is structurally sound, and that hop axes are consistent with the path
// (hop axes require a multi-hop path containing the matching hop;
// multi-hop grids sweep hop axes, not the flat link axes). Per-cell
// parameter validation (positive RTTs, known CC, cross fraction range,
// ...) happens when each cell's Experiment runs. Validate is stable
// under normalized(): a normalized Axes validates iff its source did.
func (a Axes) Validate() error {
	if err := a.Path.Validate(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if !a.multiHop() {
		if len(a.EdgeCaps)+len(a.WANRTTs)+len(a.IngressBuffers) > 0 {
			return fmt.Errorf("workload: hop axes (EdgeCaps/WANRTTs/IngressBuffers) require a multi-hop Path")
		}
	} else {
		if err := a.validateMultiHop(); err != nil {
			return err
		}
	}
	n := a.normalized()
	switch {
	case len(n.Concurrencies) == 0:
		return fmt.Errorf("workload: empty grid axis Concurrencies")
	case len(n.ParallelFlows) == 0:
		return fmt.Errorf("workload: empty grid axis ParallelFlows")
	case len(n.TransferSizes) == 0:
		return fmt.Errorf("workload: empty grid axis TransferSizes")
	}
	return nil
}

// validateMultiHop checks the hop-axis rules for a multi-hop grid. The
// flat link axes are rejected unless they hold exactly the singleton
// normalized() itself fills in (so re-validating a normalized Axes
// still passes) — a multi-hop grid's RTT, buffer, and cross-traffic
// vary only through its hops.
func (a Axes) validateMultiHop() error {
	eff := a.Path.Effective(a.Net)
	if len(a.RTTs) > 1 || (len(a.RTTs) == 1 && a.RTTs[0] != eff.BaseRTT) {
		return fmt.Errorf("workload: multi-hop grids sweep WANRTTs, not the flat RTTs axis")
	}
	if len(a.Buffers) > 1 || (len(a.Buffers) == 1 && a.Buffers[0] != eff.Buffer) {
		return fmt.Errorf("workload: multi-hop grids sweep IngressBuffers, not the flat Buffers axis")
	}
	if len(a.CrossFractions) > 1 || (len(a.CrossFractions) == 1 && a.CrossFractions[0] != eff.Cross.Fraction) {
		return fmt.Errorf("workload: multi-hop grids fix cross-traffic per hop; the flat CrossFractions axis does not apply")
	}
	// A hop axis needs its hop; when the hop is absent the axis may
	// hold only the {0} placeholder normalized() fills in.
	if _, ok := a.Path.Hop(tcpsim.HopEdge); !ok {
		if len(a.EdgeCaps) > 1 || (len(a.EdgeCaps) == 1 && a.EdgeCaps[0] != 0) {
			return fmt.Errorf("workload: EdgeCaps axis requires an edge hop in the path")
		}
	} else {
		for _, c := range a.EdgeCaps {
			if c <= 0 {
				return fmt.Errorf("workload: EdgeCaps values must be positive")
			}
		}
	}
	if _, ok := a.Path.Hop(tcpsim.HopWAN); !ok {
		if len(a.WANRTTs) > 1 || (len(a.WANRTTs) == 1 && a.WANRTTs[0] != 0) {
			return fmt.Errorf("workload: WANRTTs axis requires a wan hop in the path")
		}
	} else {
		for _, r := range a.WANRTTs {
			if r <= 0 {
				return fmt.Errorf("workload: WANRTTs values must be positive")
			}
		}
	}
	if _, ok := a.Path.Hop(tcpsim.HopIngress); !ok {
		if len(a.IngressBuffers) > 1 || (len(a.IngressBuffers) == 1 && a.IngressBuffers[0] != 0) {
			return fmt.Errorf("workload: IngressBuffers axis requires an ingress hop in the path")
		}
	} else {
		for _, b := range a.IngressBuffers {
			if b < 0 {
				return fmt.Errorf("workload: IngressBuffers values must be non-negative")
			}
		}
	}
	return nil
}

// NetPoints returns the number of distinct network points: the size of
// the TransferSizes × RTTs × Buffers × CCs × CrossFractions product for
// a flat grid, and of TransferSizes × EdgeCaps × WANRTTs ×
// IngressBuffers × CCs for a multi-hop grid.
func (a Axes) NetPoints() int {
	n := a.normalized()
	if n.multiHop() {
		return len(n.TransferSizes) * len(n.EdgeCaps) * len(n.WANRTTs) * len(n.IngressBuffers) * len(n.CCs)
	}
	return len(n.TransferSizes) * len(n.RTTs) * len(n.Buffers) * len(n.CCs) * len(n.CrossFractions)
}

// Size returns the total number of cells in the grid.
func (a Axes) Size() int {
	n := a.normalized()
	return a.NetPoints() * len(n.Concurrencies) * len(n.ParallelFlows)
}

// GridCell is one grid coordinate: a network point plus one Table 2
// plane position.
type GridCell struct {
	// Index is the cell's row position in GridResult.Rows.
	Index int
	// NetIndex identifies the network point (position in the size × RTT
	// × buffer × CC × cross product); cells sharing a NetIndex differ
	// only within the Table 2 plane.
	NetIndex      int
	TransferSize  units.ByteSize
	RTT           time.Duration
	Buffer        units.ByteSize // 0 = tcpsim default (half BDP)
	CC            tcpsim.CongestionControl
	CrossFraction float64
	Concurrency   int
	ParallelFlows int
	// Capacity overrides the base Net's link capacity when positive.
	// Flat grids leave it 0 (the base capacity applies everywhere, and
	// the zero keeps their experiments — and hence fingerprints, seeds,
	// and cache records — bit-identical to the pre-path layout);
	// multi-hop grids set it to the composed bottleneck's capacity.
	Capacity units.BitRate
	// EdgeCap, WANRTT, and IngressBuffer record the cell's hop-axis
	// coordinates on a multi-hop grid (0 when the hop is absent or the
	// grid is flat). RTT, Buffer, Capacity, and CrossFraction above
	// hold the *composed* path behavior; these hold the hop knobs that
	// produced it, for reporting and decision attribution.
	EdgeCap       units.BitRate
	WANRTT        time.Duration
	IngressBuffer units.ByteSize
}

// Cells enumerates the grid in deterministic row order: network axes
// outermost (sizes, then RTTs, buffers, CCs, cross fractions), then the
// Table 2 plane in sweep order (flow counts outer, concurrencies inner).
// With singleton network axes this is exactly the Table 2 sweep's
// order (SweepResult.Rows).
// Multi-hop grids enumerate sizes, then edge capacities, WAN RTTs,
// ingress buffers, and CCs, composing each hop point down to the
// effective bottleneck coordinates.
func (a Axes) Cells() []GridCell {
	n := a.normalized()
	if n.multiHop() {
		return n.multiHopCells()
	}
	cells := make([]GridCell, 0, a.Size())
	netIdx := 0
	for _, size := range n.TransferSizes {
		for _, rtt := range n.RTTs {
			for _, buf := range n.Buffers {
				for _, cc := range n.CCs {
					for _, cross := range n.CrossFractions {
						for _, p := range n.ParallelFlows {
							for _, conc := range n.Concurrencies {
								cells = append(cells, GridCell{
									Index:         len(cells),
									NetIndex:      netIdx,
									TransferSize:  size,
									RTT:           rtt,
									Buffer:        buf,
									CC:            cc,
									CrossFraction: cross,
									Concurrency:   conc,
									ParallelFlows: p,
								})
							}
						}
						netIdx++
					}
				}
			}
		}
	}
	return cells
}

// multiHopCells enumerates a multi-hop grid (receiver must be
// normalized). Each hop point — an (edge capacity, WAN RTT, ingress
// buffer) override applied to the path — is composed down to its
// effective bottleneck, and the *composed* coordinates (RTT, buffer,
// cross fraction, capacity) are stored on the cell. Everything
// downstream (seed derivation, experiment lowering, record
// fingerprints) therefore sees an ordinary cell: a multi-hop cell and
// a flat cell with the same composed coordinates share seeds exactly
// as the intrinsic-seed contract requires.
func (n Axes) multiHopCells() []GridCell {
	cells := make([]GridCell, 0, n.Size())
	netIdx := 0
	for _, size := range n.TransferSizes {
		for _, ecap := range n.EdgeCaps {
			for _, wrtt := range n.WANRTTs {
				for _, ibuf := range n.IngressBuffers {
					for _, cc := range n.CCs {
						eff := pathWithCell(n.Path, ecap, wrtt, ibuf).Effective(n.Net)
						for _, p := range n.ParallelFlows {
							for _, conc := range n.Concurrencies {
								cells = append(cells, GridCell{
									Index:         len(cells),
									NetIndex:      netIdx,
									TransferSize:  size,
									RTT:           eff.BaseRTT,
									Buffer:        eff.Buffer,
									CC:            cc,
									CrossFraction: eff.Cross.Fraction,
									Capacity:      eff.Capacity,
									EdgeCap:       ecap,
									WANRTT:        wrtt,
									IngressBuffer: ibuf,
									Concurrency:   conc,
									ParallelFlows: p,
								})
							}
						}
						netIdx++
					}
				}
			}
		}
	}
	return cells
}

// pathWithCell returns a copy of the path with one hop point's axis
// overrides applied: the edge hop's capacity, the WAN hop's RTT, and
// the ingress hop's buffer (0 = tcpsim's half-BDP default, so the
// buffer override is unconditional; capacity and RTT overrides of 0
// mean "hop absent from this grid's axes" and leave the hop alone).
func pathWithCell(p tcpsim.Path, ecap units.BitRate, wrtt time.Duration, ibuf units.ByteSize) tcpsim.Path {
	out := append(tcpsim.Path(nil), p...)
	for i := range out {
		switch out[i].Role {
		case tcpsim.HopEdge:
			if ecap > 0 {
				out[i].Capacity = ecap
			}
		case tcpsim.HopWAN:
			if wrtt > 0 {
				out[i].RTT = wrtt
			}
		case tcpsim.HopIngress:
			out[i].Buffer = ibuf
		}
	}
	return out
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
//     equal to the Net's own values) has offset 0, so AxesFromSweep
//     grids keep the Table 2 sweep's seed formula exactly and stay
//     bit-identical to the Table 2 sweep.
//   - Transfer size never enters the seed — the sweep formula has no
//     size term, and the grid preserves that property: cells differing
//     only in size deliberately share their loss-randomization stream,
//     like re-running one testbed configuration with more data.
func (a Axes) netPointSeedOffset(c GridCell) int64 {
	if c.RTT == a.Net.BaseRTT && c.Buffer == a.Net.Buffer &&
		c.CC == a.Net.CC && c.CrossFraction == a.Net.Cross.Fraction {
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
	// point away from the base point's 0. Unlike the old NetIndex scheme,
	// hashed offsets can in principle collide across points — the 2⁴²
	// range keeps that below ~10⁻⁵ even for a 10⁴-point grid (a
	// collision would correlate two cells' loss randomization, never
	// corrupt results or the cache), and any grid-aware resolution would
	// reintroduce the position dependence this function exists to remove.
	return int64(h%(1<<42)+1) * netSeedStride
}

// experiment lowers one cell to a runnable Experiment with its
// deterministic per-cell seed.
func (a Axes) experiment(c GridCell) Experiment {
	net := a.Net
	net.BaseRTT = c.RTT
	net.Buffer = c.Buffer
	net.CC = c.CC
	net.Cross.Fraction = c.CrossFraction
	if c.Capacity > 0 {
		// Multi-hop cells carry their composed bottleneck capacity; flat
		// cells leave it 0, keeping their experiments bit-identical to
		// the pre-path layout. Like transfer size, capacity never enters
		// the seed (the sweep formula has no capacity term either) — but
		// it does enter the cell fingerprint, so records never collide.
		net.Capacity = c.Capacity
	}
	net.Seed = a.Net.Seed + int64(c.Concurrency*100+c.ParallelFlows) + a.netPointSeedOffset(c)
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
// affects grid output: GridCache's memo key, for grids and — through
// AxesFromSweep — for Table 2 sweeps alike. The "grid;" prefix keeps it
// disjoint from cellFingerprint's "cell;" keys.
func (a Axes) Fingerprint() string {
	n := a.normalized()
	var b strings.Builder
	b.Grow(512)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(&b, "grid;dur=%d;conc=", int64(n.Duration))
	for i, c := range n.Concurrencies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	b.WriteString(";pflows=")
	for i, p := range n.ParallelFlows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	b.WriteString(";sizes=")
	for i, s := range n.TransferSizes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f(float64(s)))
	}
	b.WriteString(";rtts=")
	for i, r := range n.RTTs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(r), 10))
	}
	b.WriteString(";bufs=")
	for i, q := range n.Buffers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f(float64(q)))
	}
	b.WriteString(";ccs=")
	for i, cc := range n.CCs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(cc)))
	}
	b.WriteString(";crosses=")
	for i, x := range n.CrossFractions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f(x))
	}
	// Hop terms render only on multi-hop grids: a 1-hop path has been
	// folded into Net by normalized(), so its fingerprint — and hence
	// its memo entry and every cell record — is byte-identical to the
	// equivalent flat grid's.
	if n.multiHop() {
		b.WriteString(";hops=")
		for i, h := range n.Path {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(h.Role.String())
			b.WriteByte(':')
			b.WriteString(f(float64(h.Capacity)))
			b.WriteByte(':')
			b.WriteString(strconv.FormatInt(int64(h.RTT), 10))
			b.WriteByte(':')
			b.WriteString(f(float64(h.Buffer)))
			b.WriteByte(':')
			b.WriteString(f(h.CrossFraction))
		}
		b.WriteString(";ecaps=")
		for i, c := range n.EdgeCaps {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f(float64(c)))
		}
		b.WriteString(";wrtts=")
		for i, r := range n.WANRTTs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(int64(r), 10))
		}
		b.WriteString(";ibufs=")
		for i, q := range n.IngressBuffers {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f(float64(q)))
		}
	}
	net := n.Net
	fmt.Fprintf(&b, ";strat=%d;keep=%t", int(n.Strategy), n.KeepClientResults)
	fmt.Fprintf(&b, ";cap=%s;mss=%s;icw=%d;rto=%d;seed=%d;maxt=%s;rq=%t",
		f(float64(net.Capacity)), f(float64(net.MSS)),
		net.InitCwndSegments, int64(net.RTO), net.Seed, f(net.MaxTime), net.RecordQueue)
	fmt.Fprintf(&b, ";xper=%d;xduty=%s;xjit=%t",
		int64(net.Cross.Period), f(net.Cross.Duty), net.Cross.PhaseJitter)
	return b.String()
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
				row, err := runExperimentRow(a.experiment(c), a.KeepClientResults, eng, &sc)
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
			return fmt.Errorf("workload: grid cell %d (conc=%d P=%d size=%v rtt=%v buf=%v cc=%v cross=%g): %w",
				c.Index, c.Concurrency, c.ParallelFlows, c.TransferSize, c.RTT, c.Buffer, c.CC, c.CrossFraction, err)
		}
	}
	return nil
}

// runExperimentRow executes one experiment and condenses it into a
// SweepRow — the one place a row is built, so every grid, sweep and
// cache path produces identical rows for identical experiments. With a scratch the
// assembly reuses the worker's buffers end to end and the only per-cell
// allocation is the row's escaping TransferTimes slice
// (TestCellAssemblyAllocs gates this); rows are bit-identical either
// way. When keep is set the full Result escapes into the row, so the
// scratch is refused and every buffer is freshly owned.
func runExperimentRow(e Experiment, keep bool, eng *tcpsim.Engine, sc *runScratch) (SweepRow, error) {
	if keep {
		sc = nil
	}
	res, err := runWithEngineScratch(e, eng, sc)
	if err != nil {
		return SweepRow{}, err
	}
	times := make([]float64, len(res.Clients))
	var durations *stats.Sample
	if sc != nil {
		sc.sample.Reset()
		durations = &sc.sample
	} else {
		durations = stats.NewSample()
	}
	for i, c := range res.Clients {
		times[i] = c.TransferTime()
		durations.Add(times[i])
	}
	p50, _ := durations.Quantile(0.50)
	p90, _ := durations.Quantile(0.90)
	p99, _ := durations.Quantile(0.99)
	row := SweepRow{
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
	}
	if keep {
		row.Result = res
	}
	return row, nil
}
