// Command streamdecide evaluates the paper's quantitative model for one
// workload and prints the local-vs-remote decision with its full
// breakdown, gain, and break-even analysis.
//
// Usage:
//
//	streamdecide -size 2GB -complexity 17e12 -local 5TF -remote 100TF \
//	             -bw 25Gbps -rate 2GB/s [-theta 1.0] [-gen 2GB/s] [-tier 2]
//
// Complexity is FLOP per GB of input, as in the paper's parameter table.
//
// Grid mode replaces the flag-supplied transfer rate with rates measured
// by congestion simulation across a multi-axis scenario grid, then
// reports the per-cell decision and where the stream-vs-store break-even
// flips:
//
//	streamdecide -grid [-gseconds 3] [-concs 4] [-pflows 8]
//	             [-sizes 0.5GB,2GB] [-rtts 8ms,16ms,64ms]
//	             [-buffers auto,2MB] [-ccs reno,cubic] [-crosses 0,0.3]
//	             [-cache-dir DIR|off]
//
// Multi-hop mode replaces the single bottleneck link with an
// edge→WAN→facility hop chain (-hops) and sweeps hop knobs instead of
// the flat link axes; the decision becomes a placement (stream-direct,
// edge-prefilter, store-forward) and the report shows the per-cell
// bottleneck hop plus the placement frontier:
//
//	streamdecide -grid -hops edge:10Gbps:2ms:1MB,wan:100Gbps:30ms:8MB:0.3,ingress:40Gbps:1ms:4MB \
//	             -edge-caps 10Gbps,60Gbps -wan-rtts 20ms,60ms \
//	             [-ingress-buffers auto,4MB] [-prefilter 0.25]
//
// Portfolio-over-grid mode decides a whole JSON portfolio (the -config
// schema) at every grid cell and reports, per cell, each scenario's
// decision plus the fraction of the portfolio that should stream, and,
// per scenario, the break-even frontier where its decision flips:
//
//	streamdecide -portfolio examples/portfolio/portfolio.json -grid \
//	             [-rtts 8ms,64ms] [-crosses 0,0.3] [...axis flags...]
//	             [-csv out.csv] [-json out.json]
//
// Grid sweeps are cached on disk per cell under -cache-dir (default
// $CACHE_DIR, else ~/.cache/repro/sweeps; an indexed segment file since
// repro-cells/v2), so a repeated invocation — or any sub-grid or
// overlapping grid of an earlier one — recomputes only cells never seen
// before; warm portfolio runs perform zero simulations. Pass
// -cache-stats to see how a grid run was served (cells from memo / the
// segment file vs engine runs). -compact-cache rewrites the segment
// without its dead space, then exits; it is a standalone mode that
// takes no flag but -cache-dir, and any other flag set with it is
// refused by name:
//
//	streamdecide -compact-cache [-cache-dir DIR]
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
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "streamdecide:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("streamdecide", flag.ContinueOnError)
	sizeStr := fs.String("size", "2GB", "data unit size S_unit (e.g. 0.5GB)")
	complexity := fs.Float64("complexity", 17e12, "computation complexity C in FLOP per GB")
	localStr := fs.String("local", "5TF", "local processing rate R_local (e.g. 5TF)")
	remoteStr := fs.String("remote", "100TF", "remote processing rate R_remote")
	bwStr := fs.String("bw", "25Gbps", "link bandwidth Bw")
	rateStr := fs.String("rate", "2GB/s", "effective transfer rate R_transfer")
	theta := fs.Float64("theta", 1.0, "file I/O overhead coefficient (1 = streaming)")
	genStr := fs.String("gen", "", "sustained generation rate (optional, e.g. 2GB/s)")
	tier := fs.Int("tier", 0, "latency tier deadline: 1 (<1s), 2 (<10s), 3 (<1min); 0 = none")
	sweep := fs.String("sensitivity", "", "plot T_pct sensitivity: theta, alpha, or r")
	configPath := fs.String("config", "", "decide a JSON portfolio of workloads instead of flags")
	grid := fs.Bool("grid", false, "decide across a measured multi-axis scenario grid")
	portfolioPath := fs.String("portfolio", "", "decide this JSON portfolio at every grid cell (requires -grid)")
	csvPath := fs.String("csv", "", "portfolio grid mode: write per-cell, per-scenario decisions as CSV")
	jsonPath := fs.String("json", "", "portfolio grid mode: archive the portfolio grid as versioned JSON")
	gseconds := fs.Int("gseconds", 3, "grid: congestion experiment duration in seconds")
	prefilter := fs.Float64("prefilter", 0,
		"multi-hop grid: edge-prefilter survival fraction in (0,1) for placement decisions (0 disables)")
	axisFlags := scenario.AxesSpec{}
	axisFlags.Register(fs)
	cacheDir := fs.String("cache-dir", "",
		"sweep disk cache directory (default $CACHE_DIR, else ~/.cache/repro/sweeps; \"off\" disables)")
	cacheStats := fs.Bool("cache-stats", false,
		"grid mode: report cells requested / from memo / from disk / from segment / engine runs / writer-lock waits after the run")
	compactCache := fs.Bool("compact-cache", false,
		"compact the cell store (rewrite the segment file without its dead space), then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compactCache {
		return scenario.RunCompactCache(fs, out, *cacheDir)
	}
	if *cacheStats && !*grid {
		return fmt.Errorf("-cache-stats requires -grid (usage: streamdecide -grid [-cache-stats] ...; only grid runs touch the sweep caches)")
	}
	if *grid && *configPath != "" {
		return fmt.Errorf("-grid and -config are mutually exclusive (a portfolio row has its own transfer rate)")
	}
	if *grid && *sweep != "" {
		return fmt.Errorf("-sensitivity is incompatible with -grid (the grid itself is the sensitivity sweep)")
	}
	if *portfolioPath != "" && !*grid {
		return fmt.Errorf("-portfolio requires -grid (use -config to decide a portfolio at its own flag-supplied rates)")
	}
	if *portfolioPath != "" && *configPath != "" {
		return fmt.Errorf("-portfolio and -config are mutually exclusive")
	}
	if (*csvPath != "" || *jsonPath != "") && *portfolioPath == "" {
		return fmt.Errorf("-csv/-json output is portfolio grid mode only (pass -portfolio)")
	}

	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		doc, err := scenario.Load(f)
		if err != nil {
			return err
		}
		rows, err := scenario.DecideAll(doc)
		if err != nil {
			return err
		}
		fmt.Fprint(out, scenario.Render(rows))
		return nil
	}

	// The flags spell one -config row, lowered by the same code. In grid
	// mode the measured cells supply the transfer side (-bw is the
	// grid's link and -rate is unused), so the row carries the
	// placeholder pair a cell-mode decided request gets.
	w := scenario.Workload{
		Name:                "flags",
		UnitSize:            *sizeStr,
		ComplexityFLOPPerGB: *complexity,
		Local:               *localStr,
		Remote:              *remoteStr,
		Bandwidth:           *bwStr,
		TransferRate:        *rateStr,
		Theta:               theta,
		GenerationRate:      *genStr,
		Tier:                *tier,
	}
	if *grid {
		w.Bandwidth, w.TransferRate = "25Gbps", "1GB/s"
	}
	p, opts, err := w.Model()
	if err != nil {
		return err
	}
	if w.Tier != 0 {
		fmt.Fprintf(out, "deadline: %s\n", core.Tier(w.Tier))
	}

	if *grid {
		dir, err := workload.ResolveCacheDir(*cacheDir)
		if err != nil {
			return err
		}
		workload.SetDiskCacheDir(dir)
		// Counter snapshot for -cache-stats: the delta after the run
		// attributes every grid cell to memo, disk, or engine execution.
		statsBefore := workload.ReadCacheStats()
		reportStats := func(err error) error {
			if err == nil && *cacheStats {
				fmt.Fprintf(out, "cache-stats: %s\n", workload.ReadCacheStats().Since(statsBefore))
			}
			return err
		}
		// Lower through the canonical GridSpec — the exact struct a
		// decided service request lowers through — so the CLI and the
		// service cannot drift apart on grid vocabulary or defaults.
		axes, err := scenario.GridSpec{
			DurationS: *gseconds,
			Bandwidth: *bwStr,
			Size:      *sizeStr,
			AxesSpec:  axisFlags,
		}.Axes()
		if err != nil {
			return err
		}
		if *prefilter != 0 && len(axes.Path) < 2 {
			return fmt.Errorf("-prefilter requires a multi-hop grid (pass -hops with at least two hops)")
		}
		g, err := workload.RunGridCached(axes, 0)
		if err != nil {
			return err
		}
		a := g.Axes
		if *portfolioPath != "" {
			pf, err := scenario.LoadPortfolioFile(*portfolioPath)
			if err != nil {
				return err
			}
			pg, err := scenario.DecidePortfolio(pf, g)
			if err != nil {
				return err
			}
			// RenderPortfolio prints the grid dimensions itself; only the
			// link note is unique to the CLI preamble.
			if len(a.Path) > 1 {
				fmt.Fprintf(out, "link: %d-hop path, bottleneck composed per cell; R_transfer measured per cell\n\n", len(a.Path))
			} else {
				fmt.Fprintf(out, "link: %v bottleneck; R_transfer measured per cell\n\n", a.Net.Capacity)
			}
			fmt.Fprint(out, scenario.RenderPortfolio(pg))
			if *csvPath != "" {
				if err := writeFile(*csvPath, pg.WriteCSV); err != nil {
					return err
				}
			}
			if *jsonPath != "" {
				if err := writeFile(*jsonPath, pg.WriteJSON); err != nil {
					return err
				}
			}
			return reportStats(nil)
		}
		if len(a.Path) > 1 {
			fmt.Fprintf(out, "grid: %s (%d-hop path, bottleneck composed per cell)\n", scenario.GridHeader(a), len(a.Path))
			fmt.Fprintf(out, "model: C=%.3g FLOP/GB, local %v, remote %v, theta %.2f; R_transfer measured per cell\n\n",
				*complexity, p.LocalRate, p.RemoteRate, p.Theta)
			pds, err := scenario.DecidePlacementGrid(g, p,
				core.PlacementOpts{DecideOpts: opts, PrefilterFactor: *prefilter})
			if err != nil {
				return err
			}
			fmt.Fprint(out, scenario.RenderPlacementGrid(pds))
			return reportStats(nil)
		}
		fmt.Fprintf(out, "grid: %s (%v bottleneck)\n", scenario.GridHeader(a), a.Net.Capacity)
		fmt.Fprintf(out, "model: C=%.3g FLOP/GB, local %v, remote %v, theta %.2f; R_transfer measured per cell\n\n",
			*complexity, p.LocalRate, p.RemoteRate, p.Theta)
		// DecideGrid overrides the transfer-side fields (unit size,
		// bandwidth, transfer rate) per cell; p's compute side carries
		// through unchanged.
		ds, err := scenario.DecideGrid(g, p, opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, scenario.RenderGrid(ds))
		return reportStats(nil)
	}

	d, err := core.Decide(p, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "parameters: %s\n\n", p)
	fmt.Fprintf(out, "breakdown:  %s\n", d.Breakdown)
	fmt.Fprintf(out, "gain:       %.3fx (T_local / T_pct)\n\n", d.Gain)
	fmt.Fprintf(out, "DECISION:   %s\n", d.Choice)
	fmt.Fprintf(out, "reason:     %s\n", d.Reason)
	if tierGot, ok := core.StrictestTier(d.Breakdown.TPct); ok {
		fmt.Fprintf(out, "remote path meets: %s\n", tierGot)
	} else {
		fmt.Fprintf(out, "remote path meets no latency tier (T_pct %v)\n", d.Breakdown.TPct.Round(time.Millisecond))
	}

	fmt.Fprintln(out, "\nbreak-even analysis:")
	if th, err := p.BreakEvenTheta(); err == nil {
		fmt.Fprintf(out, "  theta* = %.3f (remote wins while file overhead stays below this)\n", th)
	} else {
		fmt.Fprintf(out, "  theta*: %v\n", err)
	}
	if a, err := p.BreakEvenAlpha(); err == nil {
		fmt.Fprintf(out, "  alpha* = %.3f (minimum transfer efficiency for remote to win)\n", a)
	} else {
		fmt.Fprintf(out, "  alpha*: %v\n", err)
	}
	if r, err := p.BreakEvenR(); err == nil {
		fmt.Fprintf(out, "  r*     = %.3f (minimum remote/local compute ratio)\n", r)
	} else {
		fmt.Fprintf(out, "  r*:     %v\n", err)
	}
	if b, err := p.BreakEvenBandwidth(); err == nil {
		fmt.Fprintf(out, "  Bw*    = %v (minimum link bandwidth at current alpha)\n", b)
	} else {
		fmt.Fprintf(out, "  Bw*:    %v\n", err)
	}

	if *sweep != "" {
		if err := printSensitivity(out, p, *sweep); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// printSensitivity renders an ASCII chart of T_pct across one model
// coefficient, with the local completion time as the reference line.
func printSensitivity(out io.Writer, p core.Params, axis string) error {
	var series stats.Series
	var err error
	var xlabel string
	switch axis {
	case "theta":
		series, err = p.SweepTheta(1, 10, 32)
		xlabel = "theta (file I/O overhead)"
	case "alpha":
		series, err = p.SweepAlpha(0.05, 1, 32)
		xlabel = "alpha (transfer efficiency)"
	case "r":
		series, err = p.SweepR(0.5, 50, 32)
		xlabel = "r (remote/local compute ratio)"
	default:
		return fmt.Errorf("unknown sensitivity axis %q (want theta, alpha, or r)", axis)
	}
	if err != nil {
		return err
	}
	series.Name = "T_pct"
	local := stats.Series{Name: "T_local"}
	for i := 0; i < series.Len(); i++ {
		local.AddPoint(series.X[i], p.TLocal().Seconds())
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, plot.LineChart(plot.Config{
		Title:  fmt.Sprintf("T_pct sensitivity to %s", axis),
		XLabel: xlabel,
		YLabel: "completion time (s)",
		Width:  64,
		Height: 14,
	}, series, local))
	return nil
}
