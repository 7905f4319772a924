package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

func samples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileRuleOmitsThinTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		tailOK bool
	}{{1, false}, {50, false}, {99, false}, {100, true}, {1000, true}} {
		p := pass{lat: samples(tc.n), busy: time.Second, attempted: tc.n}
		metrics, ok := endToEnd(p, []float64{1}, 10)
		if ok != tc.tailOK {
			t.Errorf("n=%d: tailOK=%v, want %v", tc.n, ok, tc.tailOK)
		}
		if _, has := metrics["p90_ms"]; has != tc.tailOK {
			t.Errorf("n=%d: p90_ms reported=%v, want %v", tc.n, has, tc.tailOK)
		}
		if tc.tailOK {
			s := summarize(p.lat)
			if beyond := tc.n - 1 - rank(tc.n, 0.9); beyond < minTail {
				t.Errorf("n=%d: p90 reported with %d samples beyond it", tc.n, beyond)
			}
			if want := time.Duration(tc.n*9/10) * time.Millisecond; s.p90 != want {
				t.Errorf("n=%d: p90=%v, want %v", tc.n, s.p90, want)
			}
		}
	}
	if s := summarize(samples(101)); s.p50 != 51*time.Millisecond {
		t.Errorf("p50 of 1..101 ms = %v, want 51ms", s.p50)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	// op [0,100]
	//   workload.a [10,40]
	//     workload.a1 [20,30]
	//   scenario.b [35,60]  (overlaps a: the overlap counts once for op)
	//   service.c [70,80]
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "workload.a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 1, Name: "workload.a1", Start: ms(20), End: ms(30)},
		{ID: 3, Parent: 0, Name: "scenario.b", Start: ms(35), End: ms(60)},
		{ID: 4, Parent: 0, Name: "service.c", Start: ms(70), End: ms(80)},
	}
	want := map[int]time.Duration{0: ms(40), 1: ms(20), 2: ms(10), 3: ms(25), 4: ms(10)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	wantLayers := map[string]time.Duration{uncovered: ms(40), "workload": ms(30), "scenario": ms(25), "service": ms(10)}
	self := layerSelf(spans)
	if !reflect.DeepEqual(self, wantLayers) {
		t.Errorf("layerSelf = %v, want %v", self, wantLayers)
	}
	// The overlap of a and b counts in both siblings' self times: 105ms of
	// self time for a 100ms op, which the traced run's check rejects.
	if addsUp(spans, self) {
		t.Errorf("self times of a tree with overlapping siblings reported as adding up to the op")
	}
	spans[3].Start = ms(40)
	if self := layerSelf(spans); !addsUp(spans, self) {
		t.Errorf("self times %v of a tree without overlaps do not add up to the 100ms op", self)
	}
}

func TestGraftedSelfTimesAddUpToOp(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	rec := &recorder{}
	root := rec.add(7, -1, "op", ms(1000), ms(1050))
	// A replay that took longer than the request it splits: 60ms of
	// calls laid over a 50ms request are clipped to it.
	replay := []span{
		{ID: 0, Parent: -1, Name: "service.handler", Start: ms(0), End: ms(60)},
		{ID: 1, Parent: 0, Name: "scenario.lower", Start: ms(0), End: ms(20)},
		{ID: 2, Parent: 0, Name: "workload.get_stats", Start: ms(20), End: ms(55)},
	}
	rec.graft(7, root, replay)
	if self := layerSelf(rec.spans); !addsUp(rec.spans, self) {
		t.Errorf("layer self times %v do not sum to the op's 50ms", self)
	}
	for _, s := range rec.spans[1:] {
		if s.Op != 7 || s.Start < ms(1000) || s.End > ms(1050) {
			t.Errorf("grafted span %+v not clipped into op 7's interval", s)
		}
	}
}

// fakeOps is an instance whose op i produces outs[i mod len], judged by
// verify.
type fakeOps struct {
	outs   []int
	verify func(out int) error
	cur    int
}

func (f *fakeOps) pid() int                               { return os.Getpid() }
func (f *fakeOps) op(i int) error                         { f.cur = f.outs[i%len(f.outs)]; return nil }
func (f *fakeOps) check(int) error                        { return f.verify(f.cur) }
func (f *fakeOps) split(*recorder, int, layerStats) error { return nil }
func (f *fakeOps) close() error                           { return nil }

// runFake measures a fakeOps pass of about a second and checks that it
// counted exactly the ops whose output check fails as failed.
func runFake(t *testing.T, outs []int, check func(int) error) {
	t.Helper()
	f := &fakeOps{outs: outs, verify: check}
	p, err := measurePass(f, f.op, 0, 1, len(outs), 0, f.pid())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < p.attempted; i++ {
		if check(outs[i%len(outs)]) != nil {
			want++
		}
	}
	if want == 0 || p.failed != want {
		t.Errorf("failed %d of %d ops, want %d", p.failed, p.attempted, want)
	}
}

func TestCorruptPortfolioBodyIsAFailedOp(t *testing.T) {
	want := []byte(`{"schema":"portfolio/v1","cells":[]}` + "\n")
	flipped := append([]byte(nil), want...)
	flipped[3] ^= 1
	bodies := [][]byte{want, flipped, []byte(`{"schema":"portfolio/v1","cells":[1]}` + "\n"), want}
	const warm = "cells=1024 memo=1024 disk=0 segment=0 engine-runs=0 lock-waits=0 index-load=0s bytes-read=0"
	runFake(t, []int{0, 1, 2, 3}, func(k int) error {
		return checkPortfolio(200, warm, bodies[k], want)
	})
	if err := checkPortfolio(200, "cells=1 engine-runs=3 lock-waits=0", want, want); err == nil {
		t.Error("a portfolio answer that ran the engine passed its check")
	}
	if err := checkPortfolio(500, warm, want, want); err == nil {
		t.Error("a non-200 portfolio answer passed its check")
	}
}

func TestWarmEngineRunIsAFailedOp(t *testing.T) {
	runFake(t, []int{0, 0, 2, 0}, func(runs int) error {
		return checkWarm(workload.CacheStats{EngineRuns: int64(runs)}, 0)
	})
	if err := checkWarm(workload.CacheStats{}, 1); err == nil {
		t.Error("an engine run seen only by EngineRunCount passed the warm check")
	}
	want := scenario.DecideResponse{Decision: "local", Measured: &scenario.MeasuredCell{SSS: 1.5, WorstS: 2}}
	body, err := json.Marshal(scenario.DecideResponse{Decision: "local",
		Measured: &scenario.MeasuredCell{SSS: 1.5, WorstS: 2}, Cache: &scenario.CacheStatsJSON{EngineRuns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecide(200, body, want); err == nil {
		t.Error("a decide answer that ran the engine passed its check")
	}
}

func TestOpErrorIsAFailedOp(t *testing.T) {
	boom := errors.New("boom")
	runFake(t, []int{1, 0}, func(k int) error {
		if k == 1 {
			return boom
		}
		return nil
	})
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the metrics the
// harness reports together.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bench.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, names()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", wl, names())
	}
	metrics, _ := endToEnd(pass{lat: samples(100), busy: time.Second, attempted: 100}, []float64{1}, 10)
	if len(metrics) != len(bench.EndToEnd) {
		t.Errorf("harness reports %d end-to-end metrics, BENCHMARK.json lists %d", len(metrics), len(bench.EndToEnd))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: harness reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
