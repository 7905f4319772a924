// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (one benchmark per artifact, as
// indexed in DESIGN.md §4) and runs the ablations of DESIGN.md §5.
//
// Paper-relevant quantities are attached to each benchmark as custom
// metrics (b.ReportMetric), so `go test -bench=.` output doubles as the
// reproduction's measurement record:
//
//	worst_s     — worst-case transfer time in seconds
//	sss         — Streaming Speed Score (worst/theoretical)
//	reduction_% — streaming completion reduction vs file-based
//	...
package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fluidsim"
	"repro/internal/pipeline"
	"repro/internal/queueing"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

// --- Tables -------------------------------------------------------------

// BenchmarkTable1 regenerates the testbed configuration table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.Table1()
		if a.Text == "" {
			b.Fatal("empty table1")
		}
	}
}

// BenchmarkTable2 regenerates the experimental configuration table.
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.PaperSweep()
	for i := 0; i < b.N; i++ {
		a := experiments.Table2(cfg)
		if a.Text == "" {
			b.Fatal("empty table2")
		}
	}
}

// BenchmarkTable3 regenerates the LCLS-II workflow table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.Table3()
		if a.Text == "" {
			b.Fatal("empty table3")
		}
	}
}

// --- Figure 2: congestion sweeps -----------------------------------------

// BenchmarkFig2a regenerates Fig. 2a (simultaneous batches) at the full
// Table 2 scale and reports the observed worst case and SSS.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2a(experiments.PaperSweep())
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, res.Sweep)
	}
}

// BenchmarkFig2b regenerates Fig. 2b (scheduled, bandwidth-reserved).
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2b(experiments.PaperSweep())
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, res.Sweep)
	}
}

func reportSweep(b *testing.B, sweep *workload.GridResult) {
	b.Helper()
	worst := time.Duration(0)
	sss := 0.0
	for _, row := range sweep.Rows {
		if row.Worst > worst {
			worst = row.Worst
		}
		if row.SSS > sss {
			sss = row.SSS
		}
	}
	b.ReportMetric(worst.Seconds(), "worst_s")
	b.ReportMetric(sss, "sss")
}

// fig2aOnce caches the expensive paper-scale sweep for benchmarks that
// only consume its output (Fig. 3, case study, headline).
var fig2aCache *experiments.Fig2Result

func fig2aShared(b *testing.B) *experiments.Fig2Result {
	b.Helper()
	if fig2aCache == nil {
		res, err := experiments.Fig2a(experiments.PaperSweep())
		if err != nil {
			b.Fatal(err)
		}
		fig2aCache = res
	}
	return fig2aCache
}

// BenchmarkFig3 regenerates the pooled transfer-time CDF and reports the
// tail index.
func BenchmarkFig3(b *testing.B) {
	sweep := fig2aShared(b).Sweep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := experiments.Fig3(sweep)
		if err != nil {
			b.Fatal(err)
		}
		if a.CSV == "" {
			b.Fatal("empty fig3 CSV")
		}
	}
	tail, err := sweep.AllTransferTimes().TailIndex()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tail, "tail_idx")
}

// --- Figure 4: streaming vs file-based ------------------------------------

// BenchmarkFig4 regenerates the APS→ALCF comparison and reports the
// headline streaming reduction.
func BenchmarkFig4(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		h, _, err := experiments.Headline(res, fig2aShared(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.MaxReductionPercent, "reduction_%")
	}
}

// --- §5 case study ---------------------------------------------------------

// BenchmarkCaseStudy regenerates the tier-feasibility assessment from the
// measured congestion curve and reports the coherent-scattering
// worst-case streaming time.
func BenchmarkCaseStudy(b *testing.B) {
	curve, err := fig2aShared(b).Sweep.FitCurve()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var study *experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		study, err = experiments.CaseStudy(curve)
		if err != nil {
			b.Fatal(err)
		}
	}
	if study != nil {
		b.ReportMetric(study.Rows[0].WorstStreaming.Seconds(), "cs_worst_s")
		b.ReportMetric(study.Rows[2].WorstStreaming.Seconds(), "ls_worst_s")
	}
}

// BenchmarkHeadline regenerates the abstract's headline numbers.
func BenchmarkHeadline(b *testing.B) {
	fig2a := fig2aShared(b)
	fig4, err := experiments.Fig4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var h experiments.HeadlineNumbers
	for i := 0; i < b.N; i++ {
		h, _, err = experiments.Headline(fig4, fig2a)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.MaxReductionPercent, "reduction_%")
	b.ReportMetric(h.WorstInflation, "sss")
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------

// ablationWorkload is a shared saturating burst workload: 5 s of 6
// simultaneous 0.5 GB clients per second on the 25 Gbps bottleneck
// (96% offered load).
func ablationSpecs() ([]tcpsim.FlowSpec, []fluidsim.Flow) {
	var tspecs []tcpsim.FlowSpec
	var fspecs []fluidsim.Flow
	id := 0
	for sec := 0; sec < 5; sec++ {
		for c := 0; c < 6; c++ {
			tspecs = append(tspecs, tcpsim.FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
			fspecs = append(fspecs, fluidsim.Flow{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
			id++
		}
	}
	return tspecs, fspecs
}

// BenchmarkAblationFluidVsTCP quantifies how much the ideal fluid model
// underestimates worst-case completion versus the TCP model under burst
// overload (ablation #1). The tcp_over_fluid metric is the ratio of
// worst-case FCTs.
func BenchmarkAblationFluidVsTCP(b *testing.B) {
	cfg := tcpsim.DefaultConfig()
	tspecs, fspecs := ablationSpecs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		tres, err := tcpsim.Run(cfg, tspecs)
		if err != nil {
			b.Fatal(err)
		}
		fres, err := fluidsim.Run(cfg.Capacity, fspecs)
		if err != nil {
			b.Fatal(err)
		}
		tWorst, fWorst := 0.0, 0.0
		for _, f := range tres.Flows {
			if d := f.Duration(); d > tWorst {
				tWorst = d
			}
		}
		for _, f := range fres {
			if d := f.Duration(); d > fWorst {
				fWorst = d
			}
		}
		if fWorst > 0 {
			ratio = tWorst / fWorst
		}
	}
	b.ReportMetric(ratio, "tcp_over_fluid")
}

// BenchmarkAblationQueueing compares the analytic M/D/1 mean sojourn to
// the simulated mean FCT below saturation (ablation #3). md1_over_sim
// near 1 means the analytic screen is usable; large deviations flag the
// regimes where only simulation is trustworthy.
func BenchmarkAblationQueueing(b *testing.B) {
	e := workload.DefaultExperiment()
	e.Duration = 5 * time.Second
	e.Concurrency = 4 // 64% load, stable queue
	e.Strategy = workload.SpawnScheduled
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(e)
		if err != nil {
			b.Fatal(err)
		}
		mean := meanTransferTime(res)
		q, err := queueing.TransferQueue(float64(e.Concurrency), e.TransferSize, e.Net.Capacity)
		if err != nil {
			b.Fatal(err)
		}
		soj, err := q.MeanSojourn()
		if err != nil {
			b.Fatal(err)
		}
		if mean > 0 {
			ratio = soj.Seconds() / mean
		}
	}
	b.ReportMetric(ratio, "md1_over_sim")
}

// BenchmarkAblationThetaSweep maps θ sensitivity: the θ* break-even for
// the case-study parameters (ablation #5).
func BenchmarkAblationThetaSweep(b *testing.B) {
	p := core.Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(17e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             25 * units.Gbps,
		TransferRate:          2 * units.GBps,
		Theta:                 1,
	}
	var theta float64
	for i := 0; i < b.N; i++ {
		var err error
		theta, err = p.BreakEvenTheta()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.SweepTheta(1, theta*1.5, 64); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(theta, "theta_star")
}

// BenchmarkAblationRTT sweeps the base RTT to show how path latency
// shifts the congestion knee: worst-case FCT at 96% offered load for
// RTTs of 4, 16 (the paper's), and 64 ms. The reported metric is the
// worst FCT at 64 ms over the worst at 4 ms.
func BenchmarkAblationRTT(b *testing.B) {
	worstAt := func(rtt time.Duration) float64 {
		cfg := tcpsim.DefaultConfig()
		cfg.BaseRTT = rtt
		specs, _ := ablationSpecs()
		res, err := tcpsim.Run(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, f := range res.Flows {
			if d := f.Duration(); d > worst {
				worst = d
			}
		}
		return worst
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		w4 := worstAt(4 * time.Millisecond)
		w64 := worstAt(64 * time.Millisecond)
		if w4 > 0 {
			ratio = w64 / w4
		}
	}
	b.ReportMetric(ratio, "rtt64_over_rtt4")
}

// BenchmarkAblationBuffer sweeps the bottleneck buffer (¼, ½ = default,
// 2 BDP) at 96% offered load; deeper buffers absorb bursts and delay the
// knee. Metric: worst FCT at ¼ BDP over worst at 2 BDP.
func BenchmarkAblationBuffer(b *testing.B) {
	worstAt := func(bdpFraction float64) float64 {
		cfg := tcpsim.DefaultConfig()
		cfg.Buffer = units.ByteSize(bdpFraction * cfg.BDP())
		specs, _ := ablationSpecs()
		res, err := tcpsim.Run(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, f := range res.Flows {
			if d := f.Duration(); d > worst {
				worst = d
			}
		}
		return worst
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		shallow := worstAt(0.25)
		deep := worstAt(2.0)
		if deep > 0 {
			ratio = shallow / deep
		}
	}
	b.ReportMetric(ratio, "shallow_over_deep")
}

// BenchmarkAblationCrossTraffic quantifies the background-load extension:
// worst FCT with 40% bursty cross-traffic over an idle link at 64%
// foreground load.
func BenchmarkAblationCrossTraffic(b *testing.B) {
	run := func(cross tcpsim.CrossTraffic) float64 {
		cfg := tcpsim.DefaultConfig()
		cfg.Cross = cross
		var specs []tcpsim.FlowSpec
		id := 0
		for sec := 0; sec < 5; sec++ {
			for c := 0; c < 4; c++ { // 64% foreground
				specs = append(specs, tcpsim.FlowSpec{ID: id, Arrival: float64(sec), Size: 0.5 * units.GB})
				id++
			}
		}
		res, err := tcpsim.Run(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, f := range res.Flows {
			if d := f.Duration(); d > worst {
				worst = d
			}
		}
		return worst
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		idle := run(tcpsim.CrossTraffic{})
		busy := run(tcpsim.CrossTraffic{Fraction: 0.4, Period: time.Second, Duty: 0.5})
		if idle > 0 {
			ratio = busy / idle
		}
	}
	b.ReportMetric(ratio, "cross_over_idle")
}

// BenchmarkAblationCubic compares CUBIC against Reno on the saturating
// burst (metric cubic_over_reno = makespan ratio). Near parity on this
// workload; on longer synchronized overloads the RTT-granular model
// penalizes CUBIC's gentler decrease (see tcpsim's cubic tests).
func BenchmarkAblationCubic(b *testing.B) {
	specs, _ := ablationSpecs()
	run := func(cc tcpsim.CongestionControl) float64 {
		cfg := tcpsim.DefaultConfig()
		cfg.CC = cc
		res, err := tcpsim.Run(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		end := 0.0
		for _, f := range res.Flows {
			end = max(end, f.End)
		}
		return end
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		reno := run(tcpsim.Reno)
		cubic := run(tcpsim.Cubic)
		if reno > 0 {
			ratio = cubic / reno
		}
	}
	b.ReportMetric(ratio, "cubic_over_reno")
}

// --- Micro-benchmarks of the hot paths --------------------------------------

// BenchmarkDecide measures the core decision procedure.
func BenchmarkDecide(b *testing.B) {
	p := core.Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(17e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             25 * units.Gbps,
		TransferRate:          2 * units.GBps,
		Theta:                 1.2,
	}
	opts := core.DecideOpts{GenerationRate: 2 * units.GBps, Deadline: 10 * time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decide(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPSimSaturated measures the TCP simulator on a saturating
// burst (30 x 0.5 GB flows), constructing a fresh engine per run (the
// package-level Run path).
func BenchmarkTCPSimSaturated(b *testing.B) {
	cfg := tcpsim.DefaultConfig()
	specs, _ := ablationSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tcpsim.Run(cfg, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPSimEngineSteady measures the reusable engine on the same
// burst. The perf contract (PERFORMANCE.md): 0 allocs/op once warmed.
func BenchmarkTCPSimEngineSteady(b *testing.B) {
	cfg := tcpsim.DefaultConfig()
	specs, _ := ablationSpecs()
	eng := tcpsim.NewEngine()
	if _, err := eng.Run(cfg, specs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepQuickSerial keeps the serial sweep measured — the Table 2
// sweep on a one-worker executor, the reference the cached/parallel
// pipeline is compared against.
func BenchmarkSweepQuickSerial(b *testing.B) {
	a := experiments.QuickSweep()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunGridParallel(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllQuick regenerates the full artifact suite at test scale
// through the cached parallel sweep pipeline (steady state: every sweep
// is a cache hit).
func BenchmarkRunAllQuick(b *testing.B) {
	cfg := experiments.QuickSweep()
	if _, err := experiments.RunAll(cfg); err != nil { // warm the sweep cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidSim measures the fluid baseline on the same workload.
func BenchmarkFluidSim(b *testing.B) {
	cfg := tcpsim.DefaultConfig()
	_, specs := ablationSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fluidsim.Run(cfg.Capacity, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFileBased measures the staged-path evaluator at the
// worst-case aggregation (1,440 files).
func BenchmarkPipelineFileBased(b *testing.B) {
	scan := pipeline.APSScan(33 * time.Millisecond)
	cfg := pipeline.DefaultFileBased(1440)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.FileBased(scan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
