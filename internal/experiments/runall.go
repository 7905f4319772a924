package experiments

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// Suite is the complete regenerated evaluation.
type Suite struct {
	Artifacts []Artifact
}

// Get returns the artifact with the given ID, if present.
func (s *Suite) Get(id string) (Artifact, bool) {
	for _, a := range s.Artifacts {
		if a.ID == id {
			return a, true
		}
	}
	return Artifact{}, false
}

// PaperSweep is the full Table 2 sweep (10 s, concurrency 1–8,
// P ∈ {2,4,8}); QuickSweep is a scaled-down variant for tests and fast
// iteration (same axes shape, 3 s duration, fewer cells).
func PaperSweep() workload.Axes { return workload.DefaultSweep() }

// QuickSweep returns the scaled-down sweep used by tests.
func QuickSweep() workload.Axes {
	cfg := workload.DefaultSweep()
	cfg.Duration = 3 * time.Second
	cfg.Concurrencies = []int{1, 3, 5, 6, 7, 8}
	cfg.ParallelFlows = []int{2, 8}
	return cfg
}

// RunAll regenerates every table and figure from the given sweep grid,
// chaining dependencies: Fig. 3 reuses the Fig. 2a client
// population; the case study extrapolates from the Fig. 2a fitted curve;
// the headline numbers combine Fig. 4 and Fig. 2a.
func RunAll(sweep workload.Axes) (*Suite, error) {
	suite := &Suite{}
	suite.Artifacts = append(suite.Artifacts, Table1(), Table2(sweep))

	fig2a, err := Fig2a(sweep)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig2a: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, fig2a.Artifact)

	fig2b, err := Fig2b(sweep)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig2b: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, fig2b.Artifact)

	fig3, err := Fig3(fig2a.Sweep)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, fig3)

	fig4, err := Fig4()
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, fig4.Artifact, Table3())

	curve, err := fig2a.Sweep.FitCurve()
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting curve: %w", err)
	}
	regimes, err := RegimeTable(curve)
	if err != nil {
		return nil, fmt.Errorf("experiments: regimes: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, regimes)

	study, err := CaseStudy(curve)
	if err != nil {
		return nil, fmt.Errorf("experiments: case study: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, study.Artifact)

	_, headline, err := Headline(fig4, fig2a)
	if err != nil {
		return nil, fmt.Errorf("experiments: headline: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, headline)

	// Future-work extensions (ext-* IDs; DESIGN.md §5, EXPERIMENTS.md).
	heat, err := LoadHeatmap(fig2a.Sweep)
	if err != nil {
		return nil, fmt.Errorf("experiments: heat map: %w", err)
	}
	vari, err := VariabilityReport(fig2a.Sweep)
	if err != nil {
		return nil, fmt.Errorf("experiments: variability: %w", err)
	}
	pipe, err := PipelineReport()
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline: %w", err)
	}
	gain, err := GainMap()
	if err != nil {
		return nil, fmt.Errorf("experiments: gain map: %w", err)
	}
	hops, err := HopFrontier()
	if err != nil {
		return nil, fmt.Errorf("experiments: hop frontier: %w", err)
	}
	suite.Artifacts = append(suite.Artifacts, heat, vari, pipe, gain, hops)
	return suite, nil
}
