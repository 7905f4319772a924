// Package workload re-implements the paper's experimental orchestrator
// (§4, published as the "Streaming Speed Score" scripts): it spawns
// clients at a configured concurrency, each moving a fixed volume over P
// parallel TCP flows, under two spawning strategies — simultaneous
// batches that create instantaneous congestion spikes, and scheduled
// spawning with bandwidth reservation. Instead of iperf3 on a FABRIC
// testbed the transfers run on the internal/tcpsim bottleneck model; the
// knobs and collected metrics match Table 2 of the paper.
package workload

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tcpsim"
	"repro/internal/units"
)

// Strategy selects how clients are spawned within each second.
type Strategy int

// Spawning strategies (paper §4: "two client spawning strategies").
const (
	// SpawnSimultaneous starts all of a second's clients at the same
	// instant, creating an instantaneous congestion spike.
	SpawnSimultaneous Strategy = iota
	// SpawnScheduled spreads clients evenly within each second and
	// reserves the link for one client at a time (paper Fig. 2b: "every
	// transfer is scheduled to a specific time slot, and network
	// bandwidth is reserved").
	SpawnScheduled
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case SpawnSimultaneous:
		return "simultaneous"
	case SpawnScheduled:
		return "scheduled"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Experiment is one cell of the paper's Table 2 sweep.
type Experiment struct {
	// Duration is how long clients keep spawning (paper: 10 s).
	Duration time.Duration
	// Concurrency is clients spawned per second (paper: 1–8).
	Concurrency int
	// ParallelFlows is P, TCP flows per client (paper: 2, 4, 8).
	ParallelFlows int
	// TransferSize is the volume each client moves (paper: 0.5 GB).
	TransferSize units.ByteSize
	// Strategy selects the spawning mode.
	Strategy Strategy
	// Net configures the simulated bottleneck.
	Net tcpsim.Config
}

// DefaultExperiment mirrors one cell of Table 2.
func DefaultExperiment() Experiment {
	return Experiment{
		Duration:      10 * time.Second,
		Concurrency:   4,
		ParallelFlows: 8,
		TransferSize:  0.5 * units.GB,
		Strategy:      SpawnSimultaneous,
		Net:           tcpsim.DefaultConfig(),
	}
}

// MaxCellFlows bounds the work of one experiment. Spawning seconds ×
// concurrency × parallel flows is the number of flow specs the engine
// builds before its first round, so without it one cell could exhaust
// the process's memory. The paper's Table 2 sweep runs at most
// 10 s × 8 × 8 = 640 flows per cell.
const MaxCellFlows = 1 << 16

// Validate checks the experiment parameters. It is the one home of the
// per-cell rules: Axes.Validate applies it to a grid's cells before any
// of them runs.
func (e Experiment) Validate() error {
	if e.Duration <= 0 {
		return fmt.Errorf("workload: duration must be > 0, got %v", e.Duration)
	}
	if e.Concurrency <= 0 {
		return fmt.Errorf("workload: concurrency must be > 0, got %d", e.Concurrency)
	}
	if e.ParallelFlows <= 0 || e.ParallelFlows >= 1000 {
		return fmt.Errorf("workload: parallel flows must be in [1,999], got %d", e.ParallelFlows)
	}
	// The spawning seconds as both strategies count them. Dividing the
	// bound factor by factor keeps the product from overflowing.
	secs := max(1, int(e.Duration/time.Second))
	if e.Concurrency > MaxCellFlows/secs/e.ParallelFlows {
		return fmt.Errorf("workload: a cell of %d s x %d clients/s x %d flows exceeds the %d-flow limit per cell",
			secs, e.Concurrency, e.ParallelFlows, MaxCellFlows)
	}
	if e.TransferSize <= 0 {
		return fmt.Errorf("workload: transfer size must be > 0, got %v", e.TransferSize)
	}
	return e.Net.Validate()
}

// OfferedLoad returns the offered load as a fraction of link capacity:
// concurrency × size per second over capacity.
func (e Experiment) OfferedLoad() float64 {
	offered := float64(e.Concurrency) * e.TransferSize.Bytes() // bytes per second
	return offered / e.Net.Capacity.ByteRate().BytesPerSecond()
}

// ClientResult is one client's completed transfer (the paper's
// per-client transfer time log entry).
type ClientResult struct {
	ClientID int
	// Spawn is when the orchestrator launched the client (s).
	Spawn float64
	// Start is when its transfer actually began (equals Spawn except in
	// scheduled mode, where the reservation queue may delay it).
	Start float64
	// End is when the client's last flow finished (s).
	End float64
	// Bytes is the client's total payload.
	Bytes float64
	// Flows is P.
	Flows int
	// Retransmits aggregates retransmitted segments across the client's
	// flows.
	Retransmits int64
}

// TransferTime returns the client-observed transfer duration, measured
// from transfer start — the quantity plotted in Fig. 2.
func (c ClientResult) TransferTime() float64 { return c.End - c.Start }

// Result is a completed experiment.
type Result struct {
	Experiment Experiment
	Clients    []ClientResult
	// MeanUtilization is the measured link utilization across the run —
	// the x-axis of Fig. 2.
	MeanUtilization float64
	// WorstFCT is the maximum client transfer time (T_worst).
	WorstFCT time.Duration
	// Theoretical is size/capacity (T_theoretical).
	Theoretical time.Duration
	// SSS is the Streaming Speed Score WorstFCT/Theoretical.
	SSS float64
	// DroppedBytes counts payload dropped at the bottleneck
	// (0 in scheduled mode).
	DroppedBytes float64
}

// ErrNoClients is returned when an experiment produced no transfers.
var ErrNoClients = errors.New("workload: experiment produced no clients")

// Run executes the experiment on the simulated bottleneck.
func Run(e Experiment) (*Result, error) {
	return RunWithEngine(e, tcpsim.NewEngine())
}

// engineRuns counts experiment executions process-wide; see
// EngineRunCount.
var engineRuns atomic.Int64

// EngineRunCount reports how many experiments have executed on a
// simulation engine since process start. Cache tests use the delta to
// prove warm paths (in-memory or disk) run zero simulations.
func EngineRunCount() int64 { return engineRuns.Load() }

// RunWithEngine executes the experiment on a caller-owned simulation
// engine, so sweep drivers amortize the engine's buffers across many
// cells (zero steady-state allocations in the congestion loop). Results
// are identical to Run; the engine must not be used concurrently. The
// Result owns its buffers: it runs on a scratch of its own.
func RunWithEngine(e Experiment, eng *tcpsim.Engine) (*Result, error) {
	return runWithEngineScratch(e, eng, &runScratch{})
}

// clientAgg accumulates one client's flows while aggregating a
// simulation result (a client finishes when its last flow does).
type clientAgg struct {
	end         float64
	bytes       float64
	retransmits int64
	flows       int
}

// runScratch holds the per-worker buffers the experiment assembly path
// reuses across cells, extending the engine's 0-alloc discipline to the
// orchestration around it: flow specs, per-client aggregation, the
// transient Result, and the quantile sample all live here. A scratch
// belongs to one worker goroutine; the Result it backs is overwritten
// by the next cell, so scratch-backed Results must be condensed (into a
// SweepRow) before the worker moves on — runExperimentRow does exactly
// that. RunWithEngine hands each run a fresh scratch, so its Result is
// the caller's to keep.
type runScratch struct {
	specs    []tcpsim.FlowSpec
	byClient []clientAgg
	clients  []ClientResult
	res      Result
	sample   stats.Sample
}

// runWithEngineScratch is RunWithEngine on a caller-owned scratch. The
// returned Result lives in sc and is overwritten by sc's next run.
func runWithEngineScratch(e Experiment, eng *tcpsim.Engine, sc *runScratch) (*Result, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	engineRuns.Add(1)
	switch e.Strategy {
	case SpawnSimultaneous:
		return runSimultaneous(e, eng, sc)
	case SpawnScheduled:
		return runScheduled(e, eng, sc)
	default:
		return nil, fmt.Errorf("workload: unknown strategy %d", int(e.Strategy))
	}
}

// flowID encodes (client, flow) into a tcpsim flow ID.
func flowID(client, flow int) int { return client*1000 + flow }

func clientOf(id int) int { return id / 1000 }

func runSimultaneous(e Experiment, eng *tcpsim.Engine, sc *runScratch) (*Result, error) {
	seconds := int(e.Duration.Seconds())
	if seconds < 1 {
		seconds = 1
	}
	perFlow := units.ByteSize(e.TransferSize.Bytes() / float64(e.ParallelFlows))
	nClients := seconds * e.Concurrency
	specs := sc.specs[:0]
	client := 0
	for sec := 0; sec < seconds; sec++ {
		for k := 0; k < e.Concurrency; k++ {
			spawn := float64(sec)
			for f := 0; f < e.ParallelFlows; f++ {
				specs = append(specs, tcpsim.FlowSpec{
					ID:      flowID(client, f),
					Arrival: spawn,
					Size:    perFlow,
				})
			}
			client++
		}
	}
	sc.specs = specs // keep the grown capacity for the next cell
	simRes, err := eng.Run(e.Net, specs)
	if err != nil {
		return nil, fmt.Errorf("workload: simulating %d flows: %w", len(specs), err)
	}

	// Aggregate flows into clients: a client finishes when its last
	// flow does. Client IDs are dense (0..nClients-1), so a slice
	// replaces the seed's per-cell maps.
	if cap(sc.byClient) < nClients {
		sc.byClient = make([]clientAgg, nClients)
	}
	byClient := sc.byClient[:nClients]
	clear(byClient)
	for _, f := range simRes.Flows {
		c := clientOf(f.ID)
		a := &byClient[c]
		if f.End > a.end {
			a.end = f.End
		}
		a.bytes += f.Bytes
		a.retransmits += f.Retransmits
		a.flows++
	}
	res := &sc.res
	*res = Result{Experiment: e, DroppedBytes: simRes.DroppedBytes, Clients: sc.clients[:0]}
	for c := 0; c < client; c++ {
		a := &byClient[c]
		if a.flows == 0 {
			continue
		}
		// Clients spawn Concurrency per second in ID order.
		spawn := float64(c / e.Concurrency)
		res.Clients = append(res.Clients, ClientResult{
			ClientID:    c,
			Spawn:       spawn,
			Start:       spawn,
			End:         a.end,
			Bytes:       a.bytes,
			Flows:       a.flows,
			Retransmits: a.retransmits,
		})
	}
	sc.clients = res.Clients // appends may have regrown the backing array
	util, err := simRes.MeanUtilization(e.Net)
	if err != nil {
		return nil, fmt.Errorf("workload: utilization: %w", err)
	}
	res.MeanUtilization = util
	return finalize(res)
}

func runScheduled(e Experiment, eng *tcpsim.Engine, sc *runScratch) (*Result, error) {
	seconds := int(e.Duration.Seconds())
	if seconds < 1 {
		seconds = 1
	}
	// Bandwidth reservation: one client occupies the link at a time, so
	// every client's transfer behaves like the solo run. The solo FCT is
	// identical across clients — compute it once.
	soloFCT, err := eng.SoloClientFCT(e.Net, e.TransferSize, e.ParallelFlows)
	if err != nil {
		return nil, fmt.Errorf("workload: solo client simulation: %w", err)
	}
	solo := soloFCT.Seconds()

	res := &sc.res
	*res = Result{Experiment: e, Clients: sc.clients[:0]}
	linkFree := 0.0
	client := 0
	for sec := 0; sec < seconds; sec++ {
		for k := 0; k < e.Concurrency; k++ {
			spawn := float64(sec) + float64(k)/float64(e.Concurrency)
			start := spawn
			if start < linkFree {
				start = linkFree
			}
			end := start + solo
			linkFree = end
			res.Clients = append(res.Clients, ClientResult{
				ClientID: client,
				Spawn:    spawn,
				Start:    start,
				End:      end,
				Bytes:    e.TransferSize.Bytes(),
				Flows:    e.ParallelFlows,
			})
			client++
		}
	}
	sc.clients = res.Clients
	// Utilization: payload over makespan at link rate.
	makespan := linkFree
	capBps := e.Net.Capacity.ByteRate().BytesPerSecond()
	total := float64(client) * e.TransferSize.Bytes()
	if makespan > 0 {
		res.MeanUtilization = total / makespan / capBps
	}
	return finalize(res)
}

func finalize(res *Result) (*Result, error) {
	if len(res.Clients) == 0 {
		return nil, ErrNoClients
	}
	worst := 0.0
	for _, c := range res.Clients {
		if d := c.TransferTime(); d > worst {
			worst = d
		}
	}
	res.WorstFCT = units.Seconds(worst)
	res.Theoretical = core.TheoreticalTransfer(res.Experiment.TransferSize, res.Experiment.Net.Capacity)
	s, err := core.SSS(res.WorstFCT, res.Experiment.TransferSize, res.Experiment.Net.Capacity)
	if err != nil {
		return nil, fmt.Errorf("workload: scoring: %w", err)
	}
	res.SSS = s
	return res, nil
}
