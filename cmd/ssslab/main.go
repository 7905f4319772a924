// Command ssslab runs the paper's congestion measurement methodology and
// reports Streaming Speed Scores: on the simulated bottleneck for one
// operating point (default, reproducing Fig. 2), across a multi-axis
// scenario grid (-grid), or live over loopback TCP sockets.
//
// Usage:
//
//	ssslab [-mode sim|live] [-seconds 10] [-concurrency 4] [-flows 8]
//	       [-size 0.5GB] [-strategy simultaneous|scheduled] [-csv file]
//	       [-cache-dir DIR|off]
//
// Grid mode sweeps the full operating envelope — any combination of the
// seven axes — and reports per-cell SSS plus where the stream-vs-store
// break-even flips:
//
//	ssslab -grid [-concs 1,4,8] [-pflows 2,8] [-sizes 0.5GB,2GB]
//	       [-rtts 8ms,16ms,64ms] [-buffers auto,2MB] [-ccs reno,cubic]
//	       [-crosses 0,0.3] [-complexity 17e12] [-local 5TF]
//	       [-remote 100TF] [-theta 1.0]
//
// With -hops the grid runs over a multi-hop edge→WAN→facility path
// instead of one flat link, sweeping hop knobs (-edge-caps, -wan-rtts,
// -ingress-buffers) that compose down to the per-cell bottleneck:
//
//	ssslab -grid -hops edge:10Gbps:2ms:1MB,wan:100Gbps:30ms:8MB:0.3,ingress:40Gbps:1ms:4MB \
//	       -edge-caps 10Gbps,60Gbps -wan-rtts 20ms,60ms
//
// Axis flags default to the corresponding single-experiment flag, so
// `-grid -rtts 8ms,16ms,64ms` sweeps RTT alone. Simulated results are
// memoized in memory and persisted per cell under -cache-dir (default
// $CACHE_DIR, else ~/.cache/repro/sweeps) — since repro-cells/v2 in a
// segment file indexed by a binary sidecar — so a repeated invocation
// — or any sub-grid or
// overlapping grid of an earlier invocation — recomputes only cells
// never seen before; pass `-cache-dir off` to disable persistence.
// With -cache-stats, the run reports how it was served:
//
//	cache-stats: cells=48 memo=0 disk=0 segment=48 engine-runs=0 lock-waits=0 index-load=312µs bytes-read=6144
//
// -compact-cache rewrites the segment file without its dead space,
// then exits. It is a standalone mode that takes no flag but
// -cache-dir; any other flag set with it is refused by name:
//
//	ssslab -compact-cache [-cache-dir DIR]
//
// With -portfolio, grid mode replaces the single break-even model with a
// portfolio summary: every scenario of the JSON portfolio (the
// streamdecide -config schema) is decided at every cell, and the report
// aggregates per-scenario stream/store/infeasible counts, the portfolio
// stream fraction, and each scenario's break-even frontier:
//
//	ssslab -grid -portfolio examples/portfolio/portfolio.json \
//	       [-rtts 8ms,64ms] [-crosses 0,0.3] [-csv rows.csv]
//
// Live mode uses small transfers by default (loopback is not a 25 Gbps
// WAN); pass -size explicitly to push harder.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssslab:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssslab", flag.ContinueOnError)
	mode := fs.String("mode", "sim", "sim (tcpsim bottleneck) or live (loopback TCP)")
	seconds := fs.Int("seconds", 10, "experiment duration in seconds")
	concurrency := fs.Int("concurrency", 4, "clients spawned per second")
	flows := fs.Int("flows", 8, "parallel TCP flows per client")
	sizeStr := fs.String("size", "", "transfer size per client (default 0.5GB sim, 8MB live)")
	strategy := fs.String("strategy", "simultaneous", "simultaneous or scheduled")
	csvPath := fs.String("csv", "", "write the per-client transfer log (or grid rows) as CSV")
	cacheDir := fs.String("cache-dir", "",
		"sweep disk cache directory (default $CACHE_DIR, else ~/.cache/repro/sweeps; \"off\" disables)")
	cacheStats := fs.Bool("cache-stats", false,
		"after a sim run, report cells requested / from memo / from disk / from segment / engine runs / writer-lock waits")
	compactCache := fs.Bool("compact-cache", false,
		"compact the cell store (rewrite the segment file without its dead space), then exit")
	grid := fs.Bool("grid", false, "sweep a multi-axis scenario grid (sim mode only)")
	portfolioPath := fs.String("portfolio", "",
		"grid mode: summarize this JSON portfolio's decisions at every cell (requires -grid)")
	axisFlags := scenario.AxesSpec{}
	axisFlags.Register(fs)
	complexity := fs.Float64("complexity", 17e12, "break-even model: complexity C in FLOP per GB")
	localStr := fs.String("local", "5TF", "break-even model: local processing rate")
	remoteStr := fs.String("remote", "100TF", "break-even model: remote processing rate")
	theta := fs.Float64("theta", 1.0, "break-even model: file I/O overhead coefficient")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compactCache {
		return scenario.RunCompactCache(fs, out, *cacheDir)
	}

	switch *mode {
	case "sim":
		dir, err := workload.ResolveCacheDir(*cacheDir)
		if err != nil {
			return err
		}
		workload.SetDiskCacheDir(dir)
		// Lower through the canonical GridSpec — the same struct
		// streamdecide's grid mode and decided service requests lower
		// through — so every sim surface speaks one grid vocabulary.
		// ssslab's sim default size is 0.5GB (not the spec's 2GB). Every
		// knob is passed as given, so an explicit 0 meets the spec's
		// validation instead of its defaults.
		sizeSpec := *sizeStr
		if sizeSpec == "" {
			sizeSpec = "0.5GB"
		}
		spec := scenario.GridSpec{
			DurationS:   *seconds,
			Size:        sizeSpec,
			Concurrency: concurrency,
			PFlows:      flows,
			Strategy:    *strategy,
		}
		if *grid {
			// Outside -grid the axis flags are inert, as they always were.
			spec.AxesSpec = axisFlags
		}
		base, err := spec.Axes()
		if err != nil {
			return err
		}
		// report appends the per-run cache counter deltas after a
		// successful sim run, so operators see how much of the grid the
		// memo and the cell store served (CI's subgrid-warm gate greps
		// for engine-runs=0 here).
		before := workload.ReadCacheStats()
		report := func(err error) error {
			if err == nil && *cacheStats {
				fmt.Fprintf(out, "cache-stats: %s\n", workload.ReadCacheStats().Since(before))
			}
			return err
		}
		if *grid {
			if *portfolioPath != "" {
				return report(runPortfolioSim(out, base, *portfolioPath, *csvPath))
			}
			return report(runGridSim(out, base, *complexity, *localStr, *remoteStr, *theta, *csvPath))
		}
		if *portfolioPath != "" {
			return fmt.Errorf("-portfolio requires -grid (the portfolio is decided at every grid cell)")
		}
		return report(runSingleSim(out, base, *csvPath))

	case "live":
		if *grid || *portfolioPath != "" {
			return fmt.Errorf("-grid/-portfolio are sim-mode only (live loopback has no scenario axes)")
		}
		if *cacheStats {
			return fmt.Errorf("-cache-stats is sim-mode only (usage: ssslab [-grid] -cache-stats ...; live loopback never touches the sweep caches)")
		}
		size := 8 * units.MB
		if *sizeStr != "" {
			var err error
			size, err = units.ParseByteSize(*sizeStr)
			if err != nil {
				return err
			}
		}
		strat := transport.LoadSimultaneous
		if *strategy == "scheduled" {
			strat = transport.LoadScheduled
		} else if *strategy != "simultaneous" {
			return fmt.Errorf("unknown strategy %q", *strategy)
		}
		group, err := transport.ListenServers(*concurrency)
		if err != nil {
			return err
		}
		defer group.Close()
		log, err := transport.RunLoad(group, transport.LoadConfig{
			Seconds:     *seconds,
			Concurrency: *concurrency,
			Client:      transport.ClientConfig{Flows: *flows, Bytes: size},
			Strategy:    strat,
		})
		if err != nil {
			return err
		}
		worst, err := log.MaxDuration()
		if err != nil {
			return err
		}
		sample := log.Durations()
		sm, err := sample.Summarize()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "mode:       live loopback TCP, %d servers\n", *concurrency)
		fmt.Fprintf(out, "experiment: %d s x %d clients/s x %v over %d flows (%s)\n",
			*seconds, *concurrency, size, *flows, *strategy)
		fmt.Fprintf(out, "transfers:  %s\n", sm)
		fmt.Fprintf(out, "worst FCT:  %.3f s\n", worst)
		fmt.Fprintln(out, "note: loopback has no fixed capacity; SSS against a nominal link is not reported in live mode")
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			return log.WriteCSV(f)
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q (want sim or live)", *mode)
	}
}

// runSingleSim executes one operating point as a one-cell cached grid,
// so repeated invocations with the same parameters are disk-cache hits.
// The per-client CSV re-runs the cell's experiment: cached rows hold
// only per-row aggregates, and the run reproduces the row exactly.
func runSingleSim(out io.Writer, axes workload.Axes, csvPath string) error {
	g, err := workload.RunGridCached(axes, 0)
	if err != nil {
		return err
	}
	row := g.Rows[0]
	e := g.Axes.Experiment(row.Cell)
	fmt.Fprintf(out, "mode:          simulated %v bottleneck, RTT %v\n", e.Net.Capacity, e.Net.BaseRTT)
	fmt.Fprintf(out, "experiment:    %d s x %d clients/s x %v over %d flows (%s)\n",
		int(e.Duration.Seconds()), e.Concurrency, e.TransferSize, e.ParallelFlows, e.Strategy)
	fmt.Fprintf(out, "offered load:  %.0f%%\n", e.OfferedLoad()*100)
	fmt.Fprintf(out, "measured util: %.0f%%\n", row.Utilization*100)
	fmt.Fprintf(out, "worst FCT:     %v\n", row.Worst.Round(time.Millisecond))
	theo := core.TheoreticalTransfer(e.TransferSize, e.Net.Capacity)
	fmt.Fprintf(out, "theoretical:   %v\n", theo.Round(time.Millisecond))
	fmt.Fprintf(out, "SSS:           %.2f\n", row.SSS)
	rc := core.DefaultRegimeClassifier()
	fmt.Fprintf(out, "regime:        %s\n", rc.Classify(row.Worst))
	if csvPath != "" {
		res, err := workload.Run(e)
		if err != nil {
			return err
		}
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		if err := traceLog(res).WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// traceLog converts a simulated result into the per-client trace that
// live mode writes.
func traceLog(r *workload.Result) *trace.Log {
	l := &trace.Log{}
	for _, c := range r.Clients {
		l.Add(trace.Transfer{
			ClientID:    c.ClientID,
			Flows:       c.Flows,
			Bytes:       c.Bytes,
			Start:       c.Start,
			End:         c.End,
			Retransmits: c.Retransmits,
		})
	}
	return l
}

// runPortfolioSim sweeps the scenario grid (cached, like every sim
// path) and summarizes a whole portfolio's decisions over it: per-cell
// stream fraction, per-scenario stream/store/infeasible counts, and each
// scenario's break-even frontier. With -csv, the per-cell, per-scenario
// decision rows are written in the portfolio CSV schema.
func runPortfolioSim(out io.Writer, axes workload.Axes, portfolioPath, csvPath string) error {
	pf, err := scenario.LoadPortfolioFile(portfolioPath)
	if err != nil {
		return err
	}
	g, err := workload.RunGridCached(axes, 0)
	if err != nil {
		return err
	}
	pg, err := scenario.DecidePortfolio(pf, g)
	if err != nil {
		return err
	}
	a := g.Axes
	if len(a.Path) > 1 {
		fmt.Fprintf(out, "portfolio: %s (%d scenarios) over grid: %s (%s, %d-hop path)\n\n",
			pf.Name, len(pf.Workloads), scenario.GridHeader(a), a.Strategy, len(a.Path))
	} else {
		fmt.Fprintf(out, "portfolio: %s (%d scenarios) over grid: %s (%s, %v bottleneck)\n\n",
			pf.Name, len(pf.Workloads), scenario.GridHeader(a), a.Strategy, a.Net.Capacity)
	}

	t := &plot.Table{Header: []string{"Scenario", "Remote", "Local", "Infeasible"}}
	for i, w := range pf.Workloads {
		counts := pg.ChoiceCounts(i)
		t.AddRow(w.Name,
			fmt.Sprintf("%d", counts[core.ChooseRemote]),
			fmt.Sprintf("%d", counts[core.ChooseLocal]),
			fmt.Sprintf("%d", counts[core.ChooseInfeasible]))
	}
	fmt.Fprint(out, t.String())

	var sum float64
	full := 0
	for _, c := range pg.Cells {
		fr := c.StreamFraction()
		sum += fr
		if fr == 1 {
			full++
		}
	}
	fmt.Fprintf(out, "mean stream fraction: %.0f%% (%d/%d cells fully streaming)\n",
		sum/float64(len(pg.Cells))*100, full, len(pg.Cells))
	fmt.Fprint(out, scenario.RenderFrontiers(pg))

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return pg.WriteCSV(f)
	}
	return nil
}

// runGridSim sweeps the scenario grid and reports per-cell congestion
// measurements plus where the stream-vs-store break-even flips.
func runGridSim(out io.Writer, axes workload.Axes, complexity float64, localStr, remoteStr string, theta float64, csvPath string) error {
	local, err := units.ParseFLOPS(localStr)
	if err != nil {
		return err
	}
	remote, err := units.ParseFLOPS(remoteStr)
	if err != nil {
		return err
	}
	g, err := workload.RunGridCached(axes, 0)
	if err != nil {
		return err
	}
	a := g.Axes
	if len(a.Path) > 1 {
		fmt.Fprintf(out, "grid: %s (%s, %d-hop path)\n", scenario.GridHeader(a), a.Strategy, len(a.Path))
	} else {
		fmt.Fprintf(out, "grid: %s (%s, %v bottleneck)\n", scenario.GridHeader(a), a.Strategy, a.Net.Capacity)
	}

	// On a multi-hop grid the hop knobs are the coordinates; the composed
	// bottleneck shows up through Worst/Util/SSS like any other measured
	// behavior.
	rc := core.DefaultRegimeClassifier()
	t := &plot.Table{Header: scenario.CoordHeader(a, "Offered", "Util", "Worst", "SSS", "Regime")}
	for _, row := range g.Rows {
		t.AddRow(scenario.CoordRow(row.Cell,
			fmt.Sprintf("%.0f%%", row.OfferedLoad*100),
			fmt.Sprintf("%.0f%%", row.Utilization*100),
			row.Worst.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", row.SSS),
			rc.Classify(row.Worst).String(),
		)...)
	}
	fmt.Fprint(out, t.String())

	base := core.Params{
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(complexity),
		LocalRate:             local,
		RemoteRate:            remote,
		Theta:                 theta,
	}
	ds, err := scenario.DecideGrid(g, base, core.DecideOpts{})
	if err != nil {
		return err
	}
	counts := map[core.Choice]int{}
	for _, d := range ds {
		counts[d.Decision.Choice]++
	}
	fmt.Fprintf(out, "\nstream-vs-store (C=%.3g FLOP/GB, local %v, remote %v, theta %.2f):\n",
		complexity, local, remote, theta)
	fmt.Fprintf(out, "  remote %d cells, local %d cells, infeasible %d cells\n",
		counts[core.ChooseRemote], counts[core.ChooseLocal], counts[core.ChooseInfeasible])
	fmt.Fprint(out, scenario.FlipReport(ds, "  "))

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return t.WriteCSV(f)
	}
	return nil
}
