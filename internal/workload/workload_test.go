package workload

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// fastExperiment shrinks the default for quick tests: 3 s duration.
func fastExperiment() Experiment {
	e := DefaultExperiment()
	e.Duration = 3 * time.Second
	return e
}

func TestValidate(t *testing.T) {
	if err := DefaultExperiment().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Experiment)
	}{
		{"zero duration", func(e *Experiment) { e.Duration = 0 }},
		{"zero concurrency", func(e *Experiment) { e.Concurrency = 0 }},
		{"zero flows", func(e *Experiment) { e.ParallelFlows = 0 }},
		{"too many flows", func(e *Experiment) { e.ParallelFlows = 1000 }},
		{"zero size", func(e *Experiment) { e.TransferSize = 0 }},
		{"bad net", func(e *Experiment) { e.Net.Capacity = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := DefaultExperiment()
			c.mutate(&e)
			if err := e.Validate(); err == nil {
				t.Error("invalid experiment accepted")
			}
			if _, err := Run(e); err == nil {
				t.Error("Run accepted invalid experiment")
			}
		})
	}
}

func TestOfferedLoad(t *testing.T) {
	e := DefaultExperiment()
	e.Concurrency = 4 // 4 x 0.5 GB/s = 2 GB/s on 3.125 GB/s
	if got := e.OfferedLoad(); math.Abs(got-0.64) > 1e-9 {
		t.Fatalf("OfferedLoad = %v, want 0.64", got)
	}
	e.Concurrency = 8
	if got := e.OfferedLoad(); math.Abs(got-1.28) > 1e-9 {
		t.Fatalf("OfferedLoad = %v, want 1.28", got)
	}
}

func TestStrategyString(t *testing.T) {
	if SpawnSimultaneous.String() != "simultaneous" || SpawnScheduled.String() != "scheduled" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

func TestRunSimultaneousBasics(t *testing.T) {
	e := fastExperiment()
	e.Concurrency = 2
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	wantClients := 2 * 3
	if len(res.Clients) != wantClients {
		t.Fatalf("clients = %d, want %d", len(res.Clients), wantClients)
	}
	for _, c := range res.Clients {
		if c.Flows != e.ParallelFlows {
			t.Errorf("client %d has %d flows", c.ClientID, c.Flows)
		}
		if math.Abs(c.Bytes-e.TransferSize.Bytes()) > 1 {
			t.Errorf("client %d moved %v bytes", c.ClientID, c.Bytes)
		}
		// Clients spawn Concurrency per second in ID order.
		if spawn := float64(c.ClientID / e.Concurrency); c.Start != spawn {
			t.Errorf("simultaneous client %d delayed: spawn %v start %v", c.ClientID, spawn, c.Start)
		}
		if c.TransferTime() <= 0 {
			t.Errorf("client %d non-positive FCT", c.ClientID)
		}
	}
	// Worst-case must be at least the theoretical time.
	if res.WorstFCT < res.Theoretical {
		t.Errorf("worst %v below theoretical %v", res.WorstFCT, res.Theoretical)
	}
	if res.SSS < 1 {
		t.Errorf("SSS = %v < 1", res.SSS)
	}
	if res.MeanUtilization <= 0 || res.MeanUtilization > 1.01 {
		t.Errorf("utilization = %v", res.MeanUtilization)
	}
}

func TestSimultaneousSpikesHurt(t *testing.T) {
	// At the same offered load, simultaneous spikes must produce a worse
	// worst-case than scheduled+reserved transfers — the paper's central
	// Fig. 2a vs 2b contrast.
	sim := fastExperiment()
	sim.Concurrency = 6 // 96% offered load
	sim.Strategy = SpawnSimultaneous
	simRes, err := Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim
	sched.Strategy = SpawnScheduled
	schedRes, err := Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.WorstFCT <= schedRes.WorstFCT {
		t.Fatalf("simultaneous worst %v should exceed scheduled %v",
			simRes.WorstFCT, schedRes.WorstFCT)
	}
}

func TestScheduledStaysFlat(t *testing.T) {
	// Scheduled transfers stay near the solo time across loads (paper:
	// "maximum transfer time remains comfortably within the 1-second
	// time budget", measured 0.2 s).
	for _, conc := range []int{1, 4, 8} {
		e := fastExperiment()
		e.Concurrency = conc
		e.Strategy = SpawnScheduled
		res, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if res.WorstFCT.Seconds() > 0.5 {
			t.Errorf("conc=%d scheduled worst = %v, want < 0.5 s", conc, res.WorstFCT)
		}
		// All clients identical transfer time under reservation.
		first := res.Clients[0].TransferTime()
		for _, c := range res.Clients {
			if math.Abs(c.TransferTime()-first) > 1e-9 {
				t.Fatalf("reserved transfers differ: %v vs %v", c.TransferTime(), first)
			}
		}
	}
}

func TestScheduledQueueDrift(t *testing.T) {
	// Above 100% offered load the reservation queue must drift: later
	// clients start after their scheduled spawn.
	e := fastExperiment()
	e.Concurrency = 8 // 128% offered
	e.Strategy = SpawnScheduled
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	drifted := 0
	for _, c := range res.Clients {
		// Client sec*Concurrency+k is scheduled at sec + k/Concurrency.
		spawn := float64(c.ClientID/e.Concurrency) + float64(c.ClientID%e.Concurrency)/float64(e.Concurrency)
		if c.Start > spawn+1e-9 {
			drifted++
		}
	}
	if drifted == 0 {
		t.Fatal("no reservation drift at 128% load")
	}
	// But per-transfer time stays flat (that is Fig. 2b's point).
	if res.WorstFCT.Seconds() > 0.5 {
		t.Errorf("scheduled worst = %v", res.WorstFCT)
	}
}

func TestWorstGrowsWithLoadSimultaneous(t *testing.T) {
	worstAt := func(conc int) time.Duration {
		e := fastExperiment()
		e.Concurrency = conc
		res, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		return res.WorstFCT
	}
	low := worstAt(1)
	high := worstAt(8)
	if high < 2*low {
		t.Fatalf("overload worst %v should dwarf light-load %v", high, low)
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	e := fastExperiment()
	e.Strategy = Strategy(42)
	if _, err := Run(e); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSubSecondDurationStillRuns(t *testing.T) {
	e := fastExperiment()
	e.Duration = 100 * time.Millisecond // rounds up to one burst second
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != e.Concurrency {
		t.Fatalf("clients = %d", len(res.Clients))
	}
}

func TestDeterminism(t *testing.T) {
	e := fastExperiment()
	a, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.WorstFCT != b.WorstFCT || a.SSS != b.SSS {
		t.Fatal("same experiment diverged across runs")
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatalf("client %d diverged", i)
		}
	}
}

// Guard the flow-ID encoding assumption.
func TestFlowIDEncoding(t *testing.T) {
	if flowID(7, 3) != 7003 || clientOf(7003) != 7 {
		t.Fatal("flow id scheme broken")
	}
	if clientOf(flowID(0, 999)) != 0 {
		t.Fatal("max flow index leaks into client id")
	}
}

func TestNetHorizonErrorPropagates(t *testing.T) {
	e := fastExperiment()
	e.Net.MaxTime = 0.01
	_, err := Run(e)
	if !errors.Is(err, tcpsim.ErrHorizon) {
		t.Fatalf("err = %v, want horizon", err)
	}
}

func TestExperimentTheoretical(t *testing.T) {
	e := fastExperiment()
	e.Concurrency = 1
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if want := 160 * time.Millisecond; res.Theoretical < want-time.Microsecond ||
		res.Theoretical > want+time.Microsecond {
		t.Fatalf("theoretical = %v, want %v", res.Theoretical, want)
	}
	_ = units.GB // keep import for clarity of sizes above
}
