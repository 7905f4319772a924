// Package monitor provides an online, windowed worst-case tracker for
// live transfer feeds — the operational half of the paper's measurement
// methodology. The paper argues facilities lack "consistent measurement
// frameworks to quantify these metrics in instrument-HPC systems";
// monitor.Tracker is that framework's core: stream per-transfer
// completion times in, read windowed worst-case / P99 / SSS and regime
// snapshots out.
//
// The tracker keeps a bounded time window of observations (a ring of
// buckets), so memory is O(window/granularity + observations in window)
// and ingestion is O(1) amortized.
package monitor

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
)

// Config parameterizes a Tracker.
type Config struct {
	// Window is how much history informs the statistics (e.g. 60 s).
	Window time.Duration
	// Size and Bandwidth define T_theoretical for SSS scoring.
	Size      units.ByteSize
	Bandwidth units.BitRate
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("monitor: window must be > 0, got %v", c.Window)
	}
	if c.Size <= 0 {
		return fmt.Errorf("monitor: size must be > 0, got %v", c.Size)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("monitor: bandwidth must be > 0, got %v", c.Bandwidth)
	}
	return nil
}

// observation is one recorded transfer.
type observation struct {
	at  float64 // experiment-clock seconds
	fct float64 // completion time, seconds
}

// Tracker ingests per-transfer completion times and serves windowed
// tail statistics. It is not safe for concurrent use; callers that feed
// it from several goroutines must serialize.
type Tracker struct {
	cfg Config
	obs []observation // ordered by at; pruned to the window
	now float64
}

// ErrEmptyWindow is returned when no observations are in the window.
var ErrEmptyWindow = errors.New("monitor: no observations in window")

// NewTracker builds a tracker.
func NewTracker(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg}, nil
}

// Observe records a transfer that completed at time `at` (seconds on the
// experiment clock, monotone non-decreasing) taking fct.
func (t *Tracker) Observe(at float64, fct time.Duration) error {
	if at < t.now {
		return fmt.Errorf("monitor: observation at %v before clock %v", at, t.now)
	}
	if fct <= 0 {
		return fmt.Errorf("monitor: non-positive completion time %v", fct)
	}
	t.now = at
	t.obs = append(t.obs, observation{at: at, fct: fct.Seconds()})
	t.prune()
	return nil
}

// Advance moves the clock without an observation (e.g. a quiet period),
// expiring old entries.
func (t *Tracker) Advance(at float64) error {
	if at < t.now {
		return fmt.Errorf("monitor: cannot move clock backwards (%v < %v)", at, t.now)
	}
	t.now = at
	t.prune()
	return nil
}

// prune drops observations older than the window.
func (t *Tracker) prune() {
	cutoff := t.now - t.cfg.Window.Seconds()
	i := 0
	for i < len(t.obs) && t.obs[i].at < cutoff {
		i++
	}
	if i > 0 {
		t.obs = append(t.obs[:0], t.obs[i:]...)
	}
}

// Len returns the number of observations in the window.
func (t *Tracker) Len() int { return len(t.obs) }

// sample builds a stats.Sample of windowed completion times.
func (t *Tracker) sample() (*stats.Sample, error) {
	if len(t.obs) == 0 {
		return nil, ErrEmptyWindow
	}
	s := stats.NewSample()
	for _, o := range t.obs {
		s.Add(o.fct)
	}
	return s, nil
}

// Snapshot bundles the tracker's current view for dashboards.
type Snapshot struct {
	At     float64
	N      int
	Worst  time.Duration
	P50    time.Duration
	P99    time.Duration
	SSS    float64
	Regime core.Regime
}

// Snapshot returns the current windowed statistics.
func (t *Tracker) Snapshot() (Snapshot, error) {
	s, err := t.sample()
	if err != nil {
		return Snapshot{}, err
	}
	max, _ := s.Max()
	p50, err := s.Quantile(0.5)
	if err != nil {
		return Snapshot{}, err
	}
	p99, err := s.Quantile(0.99)
	if err != nil {
		return Snapshot{}, err
	}
	worst := units.Seconds(max)
	sss, err := core.SSS(worst, t.cfg.Size, t.cfg.Bandwidth)
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{
		At:     t.now,
		N:      s.Len(),
		Worst:  worst,
		P50:    units.Seconds(p50),
		P99:    units.Seconds(p99),
		SSS:    sss,
		Regime: core.DefaultRegimeClassifier().Classify(worst),
	}, nil
}

// String renders the snapshot on one line.
func (s Snapshot) String() string {
	return fmt.Sprintf("t=%.1fs n=%d worst=%v p50=%v p99=%v sss=%.1f regime=%s",
		s.At, s.N, s.Worst.Round(time.Millisecond), s.P50.Round(time.Millisecond),
		s.P99.Round(time.Millisecond), s.SSS, s.Regime)
}
