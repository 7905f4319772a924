package repro

// Integration tests: cross-module consistency checks that tie the
// substrates together the way the paper's argument does. Unit tests live
// next to each package; everything here exercises at least two modules
// against each other.

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fluidsim"
	"repro/internal/fsim"
	"repro/internal/pipeline"
	"repro/internal/queueing"
	"repro/internal/tcpsim"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestTCPvsFluidLowLoadAgreement cross-validates the two network models:
// on an uncongested link their completion times must agree to within the
// TCP model's slow-start overhead (DESIGN.md ablation #1's control).
func TestTCPvsFluidLowLoadAgreement(t *testing.T) {
	cfg := tcpsim.DefaultConfig()
	size := 0.5 * units.GB

	fluid, err := fluidsim.SoloFCT(cfg.Capacity, size)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := tcpsim.SoloClientFCT(cfg, size, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Fluid is the physical floor; TCP pays slow start but must stay
	// within 2x at this size.
	if tcp < fluid {
		t.Fatalf("TCP %v beat the physical floor %v", tcp, fluid)
	}
	if tcp > 2*fluid {
		t.Fatalf("TCP %v more than 2x the floor %v on an idle link", tcp, fluid)
	}
}

// TestQueueingPredictsScheduledSweep checks the analytic M/D/1 against
// the scheduled (reserved) workload below saturation: mean sojourn must
// land within 40% of the simulated mean.
func TestQueueingPredictsScheduledSweep(t *testing.T) {
	e := workload.DefaultExperiment()
	e.Duration = 5 * time.Second
	e.Concurrency = 4
	e.Strategy = workload.SpawnScheduled
	res, err := workload.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	simMean := meanTransferTime(res)
	q, err := queueing.TransferQueue(float64(e.Concurrency), e.TransferSize, e.Net.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := q.MeanSojourn()
	if err != nil {
		t.Fatal(err)
	}
	ratio := analytic.Seconds() / simMean
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("M/D/1 %v vs simulated %v s (ratio %.2f) — analytic screen broken",
			analytic, simMean, ratio)
	}
}

// TestSSSCurveFeedsDecisionConsistently runs the full chain the paper
// proposes: measure a congestion curve, extract the worst-case transfer
// rate at the operating point, and check the decision framework's
// sustained-rate verdict agrees with the curve's own utilization check.
func TestSSSCurveFeedsDecisionConsistently(t *testing.T) {
	sweep, err := workload.RunGridCached(experiments.QuickSweep(), 0)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := sweep.FitCurve()
	if err != nil {
		t.Fatal(err)
	}

	// Operating point: 2 GB/s on the 25 Gbps link (64%).
	rate := 2 * units.GBps
	util := curve.UtilizationOf(rate)
	if math.Abs(util-0.64) > 1e-9 {
		t.Fatalf("utilization = %v", util)
	}
	worst, err := curve.WorstForBatch(util, 2*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	// Degraded effective rate for a 2 GB batch under worst-case
	// congestion.
	degraded := units.ByteRate(2 * units.GB.Bytes() / worst.Seconds())

	p := core.Params{
		UnitSize:              2 * units.GB,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(17e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             25 * units.Gbps,
		TransferRate:          degraded,
		Theta:                 1,
	}
	d, err := core.Decide(p, core.DecideOpts{Deadline: core.Tier2.Budget()})
	if err != nil {
		t.Fatal(err)
	}
	// Even at worst case the remote path must clear Tier 2 at 64% load —
	// this is the §5 coherent-scattering conclusion, end to end.
	if d.Choice != core.ChooseRemote || !d.DeadlineOK {
		t.Fatalf("end-to-end chain verdict: %+v (%s)", d.Choice, d.Reason)
	}
}

// TestPipelineModelVsPipelineSimulation compares the analytic streaming
// timeline (pipeline package) against the core pipeline model on the
// same workload: both describe a generation-overlapped stream, so their
// completions must agree to within the startup terms.
func TestPipelineModelVsPipelineSimulation(t *testing.T) {
	scan := pipeline.APSScan(33 * time.Millisecond)
	streamCfg := pipeline.DefaultStreaming()
	tl, err := pipeline.Streaming(scan, streamCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Core model view: frames are the units, transfer stage at the
	// streaming rate, zero compute (transfer-only comparison).
	p := core.Params{
		UnitSize:              scan.FrameSize,
		ComplexityFLOPPerByte: 0.000001, // epsilon: transfer-dominated
		LocalRate:             units.TeraFLOPS,
		RemoteRate:            units.TeraFLOPS,
		Bandwidth:             streamCfg.Rate.BitRate(),
		TransferRate:          streamCfg.Rate,
		Theta:                 1,
	}
	completion, err := p.PipelineCompletion(scan.Frames)
	if err != nil {
		t.Fatal(err)
	}
	// The core pipeline model has no generation pacing, so it gives the
	// wire-bound completion; the scenario is generation-bound. The
	// pipeline package must take the max of the two views.
	wireBound := completion.Seconds()
	genBound := scan.GenerationEnd().Seconds()
	want := math.Max(wireBound, genBound)
	got := tl.Completion.Seconds()
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("pipeline sim %v vs model max(wire %v, gen %v)", got, wireBound, genBound)
	}
}

// TestThetaChainFsimToCore verifies the θ computed by fsim produces the
// same T_pct through the core model as the explicit timeline arithmetic.
func TestThetaChainFsimToCore(t *testing.T) {
	local, remote, dtn := fsim.VoyagerGPFS(), fsim.EagleLustre(), fsim.APSToALCF()
	total := 12 * units.GB
	const files = 10

	theta, err := fsim.ThetaFor(local, dtn, remote, files, total)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		UnitSize:              total,
		ComplexityFLOPPerByte: core.ComplexityFLOPPerGB(1e12),
		LocalRate:             5 * units.TeraFLOPS,
		RemoteRate:            100 * units.TeraFLOPS,
		Bandwidth:             dtn.Rate.BitRate(),
		TransferRate:          dtn.Rate,
		Theta:                 theta,
	}
	// T_pct's staged term must equal wire + T_IO reconstructed from fsim.
	each := units.ByteSize(total.Bytes() / files)
	wTime, err := local.WriteTime(files, each)
	if err != nil {
		t.Fatal(err)
	}
	rTime, err := remote.ReadTime(files, each)
	if err != nil {
		t.Fatal(err)
	}
	wire := total.Bytes() / dtn.Rate.BytesPerSecond()
	setup := float64(files) * 1.0 // 1 s per file, pipelining 1
	wantStaged := wire + wTime.Seconds() + rTime.Seconds() + setup
	gotStaged := p.Theta * p.TTransfer().Seconds()
	if math.Abs(gotStaged-wantStaged) > 0.01 {
		t.Fatalf("staged term %v vs fsim arithmetic %v", gotStaged, wantStaged)
	}
}

// meanTransferTime is the mean client completion time of a simulated run.
func meanTransferTime(res *workload.Result) float64 {
	sum := 0.0
	for _, c := range res.Clients {
		sum += c.TransferTime()
	}
	return sum / float64(len(res.Clients))
}

// TestSuiteHeadlinesWithinPaperShape pins the quick-sweep suite's
// headline numbers to the paper's qualitative claims, as a regression
// guard for the whole chain.
func TestSuiteHeadlinesWithinPaperShape(t *testing.T) {
	suite, err := experiments.RunAll(experiments.QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	if suite.Headline.MaxReductionPercent < 90 {
		t.Errorf("streaming reduction %.1f%% below the paper's regime", suite.Headline.MaxReductionPercent)
	}
	if suite.Headline.WorstInflation < 10 {
		t.Errorf("congestion inflation %.1fx below an order of magnitude", suite.Headline.WorstInflation)
	}
}
