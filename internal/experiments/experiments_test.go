package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestTable1Static(t *testing.T) {
	a := Table1()
	for _, want := range []string{"AMD EPYC", "25 Gbps", "9000 bytes", "Component"} {
		if !strings.Contains(a.Text, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
	if a.CSV == "" || a.ID != "table1" {
		t.Error("table1 metadata incomplete")
	}
}

func TestTable2ReflectsConfig(t *testing.T) {
	a := Table2(PaperSweep())
	for _, want := range []string{"10s", "1-8", "[2 4 8]", "500.00 MB", "24", "25.00 Gbps", "16ms"} {
		if !strings.Contains(a.Text, want) {
			t.Errorf("table2 missing %q in:\n%s", want, a.Text)
		}
	}
}

func TestTable3Static(t *testing.T) {
	a := Table3()
	for _, want := range []string{"Coherent Scattering", "2 GB/s", "34 TF", "Liquid Scattering", "4 GB/s", "20 TF"} {
		if !strings.Contains(a.Text, want) {
			t.Errorf("table3 missing %q", want)
		}
	}
}

// sharedQuickFig2a runs the quick Fig. 2a sweep once for all tests.
var sharedFig2a *Fig2Result

func quickFig2a(t *testing.T) *Fig2Result {
	t.Helper()
	if sharedFig2a != nil {
		return sharedFig2a
	}
	res, err := Fig2a(QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	sharedFig2a = res
	return res
}

func TestFig2aShape(t *testing.T) {
	res := quickFig2a(t)
	if res.Artifact.ID != "fig2a" || !strings.Contains(res.Artifact.Text, "legend") {
		t.Errorf("artifact malformed: %s", res.Artifact.ID)
	}
	if !strings.Contains(res.Artifact.CSV, "utilization") {
		t.Error("csv missing header")
	}
	// The defining shape: worst-case at the highest load must dwarf the
	// worst-case at the lowest.
	rows := res.Sweep.Rows
	var lowWorst, highWorst time.Duration
	for _, r := range rows {
		if r.Concurrency == 1 && r.ParallelFlows == 8 {
			lowWorst = r.Worst
		}
		if r.Concurrency == 8 && r.ParallelFlows == 8 {
			highWorst = r.Worst
		}
	}
	if highWorst < 4*lowWorst {
		t.Errorf("no congestion blow-up: low %v high %v", lowWorst, highWorst)
	}
}

func TestFig2bFlat(t *testing.T) {
	res, err := Fig2b(QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	// Scheduled: every row's worst stays within 2x of the minimum row —
	// "steady transfer" across load.
	var min, max time.Duration
	for i, r := range res.Sweep.Rows {
		if i == 0 || r.Worst < min {
			min = r.Worst
		}
		if r.Worst > max {
			max = r.Worst
		}
	}
	if max > 2*min {
		t.Errorf("scheduled sweep not flat: min %v max %v", min, max)
	}
	if max.Seconds() > 0.5 {
		t.Errorf("scheduled worst %v, want sub-500ms", max)
	}
}

func TestFig3LongTail(t *testing.T) {
	res := quickFig2a(t)
	a, err := Fig3(res.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Text, "tail index") || !strings.Contains(a.Text, "P(X<=x)") {
		t.Errorf("fig3 text incomplete:\n%s", a.Text)
	}
	sample := res.Sweep.AllTransferTimes()
	tail, err := sample.TailIndex()
	if err != nil {
		t.Fatal(err)
	}
	// The pooled population must be long-tailed (paper: non-linear
	// P90/P99 increases).
	if tail < 2 {
		t.Errorf("tail index = %v, want >= 2", tail)
	}
}

func TestRegimeTableCoversAllThree(t *testing.T) {
	res := quickFig2a(t)
	curve, err := res.Sweep.FitCurve()
	if err != nil {
		t.Fatal(err)
	}
	a, err := RegimeTable(curve)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"low congestion", "severe congestion"} {
		if !strings.Contains(a.Text, want) {
			t.Errorf("regime table missing %q:\n%s", want, a.Text)
		}
	}
}

func TestFig4OrderingAndHeadline(t *testing.T) {
	fig4, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// 2 rates x (1 streaming + 4 file counts) = 10 variants.
	if len(fig4.Variants) != 10 {
		t.Fatalf("variants = %d", len(fig4.Variants))
	}
	// At the high rate, streaming < 1 file < 10 < 144 < 1440? The paper
	// orders streaming fastest and per-frame files slowest; intermediate
	// aggregations may reorder between themselves, so assert only the
	// paper's claims: streaming fastest, 1440 slowest.
	byLabel := map[string]time.Duration{}
	for _, v := range fig4.Variants {
		byLabel[v.Label] = v.Timeline.Completion
	}
	stream := byLabel["0.033s/frame streaming"]
	worst := byLabel["0.033s/frame 1440 file(s)"]
	for label, c := range byLabel {
		if strings.HasPrefix(label, "0.033s/frame") {
			if c < stream {
				t.Errorf("%s (%v) beat streaming (%v)", label, c, stream)
			}
			if c > worst {
				t.Errorf("%s (%v) exceeded 1440-file worst (%v)", label, c, worst)
			}
		}
	}

	res := quickFig2a(t)
	numbers, artifact, err := Headline(fig4, res)
	if err != nil {
		t.Fatal(err)
	}
	if numbers.MaxReductionPercent < 90 || numbers.MaxReductionPercent > 99 {
		t.Errorf("headline reduction = %v, want in the 90s", numbers.MaxReductionPercent)
	}
	if numbers.WorstInflation < 10 {
		t.Errorf("worst inflation = %v, want > 10x", numbers.WorstInflation)
	}
	if !strings.Contains(artifact.Text, "97%") {
		t.Error("headline should reference the paper claim")
	}
	if _, _, err := Headline(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestCaseStudyReproducesSection5(t *testing.T) {
	res := quickFig2a(t)
	curve, err := res.Sweep.FitCurve()
	if err != nil {
		t.Fatal(err)
	}
	study, err := CaseStudy(curve)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 3 {
		t.Fatalf("rows = %d", len(study.Rows))
	}
	cs, lsNominal, lsReduced := study.Rows[0], study.Rows[1], study.Rows[2]

	// Coherent scattering at 2 GB/s: 64% utilization, sustained OK,
	// Tier 2 feasible with a positive analysis budget.
	if cs.Utilization < 0.63 || cs.Utilization > 0.65 {
		t.Errorf("CS utilization = %v", cs.Utilization)
	}
	if !cs.SustainedFeasible || !cs.Tier2OK {
		t.Errorf("CS feasibility: %+v", cs)
	}
	if cs.AnalysisBudgetTier2 <= 0 || cs.AnalysisBudgetTier2 >= 10*time.Second {
		t.Errorf("CS tier2 budget = %v", cs.AnalysisBudgetTier2)
	}

	// Liquid scattering at nominal 4 GB/s: 128% of the link, infeasible.
	if lsNominal.SustainedFeasible {
		t.Error("4 GB/s should exceed the 25 Gbps link")
	}

	// Reduced to 3 GB/s: 96% utilization, feasible, much tighter budget
	// than coherent scattering.
	if lsReduced.Utilization < 0.95 || lsReduced.Utilization > 0.97 {
		t.Errorf("LS reduced utilization = %v", lsReduced.Utilization)
	}
	if !lsReduced.SustainedFeasible {
		t.Error("3 GB/s should fit the link")
	}
	if lsReduced.WorstStreaming <= cs.WorstStreaming {
		t.Errorf("96%% worst (%v) must exceed 64%% worst (%v)",
			lsReduced.WorstStreaming, cs.WorstStreaming)
	}
	if lsReduced.Tier2OK && lsReduced.AnalysisBudgetTier2 >= cs.AnalysisBudgetTier2 {
		t.Errorf("96%% budget (%v) must be tighter than 64%% budget (%v)",
			lsReduced.AnalysisBudgetTier2, cs.AnalysisBudgetTier2)
	}
	if _, err := CaseStudy(nil); err != core.ErrEmptyCurve {
		t.Errorf("nil curve err = %v", err)
	}
}

func TestRunAllSuite(t *testing.T) {
	suite, err := RunAll(QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"table1", "table2", "fig2a", "fig2b", "fig3", "fig4", "table3",
		"regimes", "casestudy", "headline", "ext-heatmap", "ext-variability", "ext-pipeline", "ext-gainmap",
		"ext-hopfrontier"}
	var got []string
	for _, a := range suite.Artifacts {
		got = append(got, a.ID)
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("artifacts = %v", got)
	}
	for i, id := range wantIDs {
		if got[i] != id {
			t.Fatalf("artifact order: %v", got)
		}
	}
	if _, ok := suite.Get("fig4"); !ok {
		t.Error("Get(fig4) failed")
	}
	if _, ok := suite.Get("nonexistent"); ok {
		t.Error("Get(nonexistent) succeeded")
	}
	if h, _ := suite.Get("headline"); !strings.Contains(h.Text, "reduction: up to ") || strings.Contains(h.Text, "up to 0.0%") {
		t.Errorf("suite headline not populated:\n%s", h.Text)
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	bad := QuickSweep()
	bad.Concurrencies = nil
	if _, err := RunAll(bad); err == nil {
		t.Fatal("bad sweep accepted")
	}
	_ = units.GB
}

func TestSweepConfigsDiffer(t *testing.T) {
	paper, quick := PaperSweep(), QuickSweep()
	if paper.Size() != 24 {
		t.Errorf("paper sweep = %d cells", paper.Size())
	}
	if quick.Size() >= paper.Size() {
		t.Errorf("quick sweep (%d) should be smaller than paper (%d)", quick.Size(), paper.Size())
	}
	if quick.Duration >= paper.Duration {
		t.Error("quick sweep should be shorter")
	}
	_ = workload.SpawnScheduled
}
