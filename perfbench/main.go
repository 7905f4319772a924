// Command perfbench is the repository's end-to-end benchmark. It drives
// the system from outside, through public functions and a real decided
// socket, on two workloads, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds this program and decided):
//
//	perfbench -decided BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it runs an untraced pass and a traced pass of the
// same workload and reports the per-layer metrics, the tracing overhead,
// and the ungated rungs. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A timed run sets its workload up at least setupReps times and until
// setupSeconds have passed, at most setupMaxReps times; setup_s is the
// median. The cheap set-ups repeat more often, so that their median does
// not hang on a few samples.
const (
	setupReps    = 5
	setupMaxReps = 15
	setupSeconds = 3 * time.Second
)

// minOps is the fewest ops a timed pass measures: with 100 samples,
// exactly minTail lie beyond the nearest-rank p90. A pass that has not
// reached it when its seconds are up keeps going, to at most three times
// its seconds.
const minOps = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	decided  string
	work     string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds one pass measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.StringVar(&o.decided, "decided", "", "path to the decided binary")
	fs.StringVar(&o.work, "work", ".bench_build/work", "directory for the run's caches and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookup(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || o.seed < 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1, --seed >= 0\n", names())
		return 2
	}
	o.trace = trace == 1
	res, err := runWorkload(o, def, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(o options, def workloadDef, info io.Writer) (*result, error) {
	runtime.GOMAXPROCS(1)
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.work, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, decided: o.decided, root: root, traces: filepath.Join(filepath.Dir(o.work), "traces")}
	fmt.Fprintf(info, "info: workload=%s seed=%d gomaxprocs=%d cache_fs=%s go=%s\n",
		def.name, o.seed, runtime.GOMAXPROCS(0), fsType(work), runtime.Version())
	if o.trace {
		return tracedRun(e, def, work, o, info)
	}
	return timedRun(e, def, work, o.seconds, info)
}

// timedRun sets the workload up repeatedly, keeps the last set-up, and
// measures its ops for the given seconds with tracing off.
func timedRun(e *env, def workloadDef, work string, seconds int, info io.Writer) (*result, error) {
	var setups []float64
	var inst instance
	begin := time.Now()
	for r := 0; r < setupMaxReps && (r < setupReps || time.Since(begin) < setupSeconds); r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(work, "setup-"+strconv.Itoa(r))
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if inst, err = def.setup(e, dir); err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	debug.FreeOSMemory()

	pid := inst.pid()
	cleared := resetPeakRSS(pid)
	p, err := measurePass(inst, inst.op, 0, seconds, minOps, 0, pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	metrics, tailOK := endToEnd(p, setups, rss)
	fmt.Fprintf(info, "info: ops=%d failed=%d error_rate=%g peak_rss_window=%s setups_s=%v\n",
		p.attempted, p.failed, p.errorRate(), map[bool]string{true: "measurement", false: "process"}[cleared], setups)
	if !tailOK {
		fmt.Fprintf(info, "info: p90 omitted: fewer than %d of %d samples lie beyond it\n", minTail, len(p.lat))
	}
	return &result{Correct: p.failed == 0 && tailOK, Attempted: p.attempted, Failed: p.failed, Metrics: metrics}, nil
}

// endToEnd computes the end-to-end metrics of a pass. p90_ms is left out,
// and tailOK is false, when fewer than minTail samples lie beyond it.
func endToEnd(p pass, setups []float64, rssMiB float64) (metrics map[string]metric, tailOK bool) {
	s := summarize(p.lat)
	metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"p50_ms":        {ms(s.p50), "ms"},
		"ops_per_s":     {float64(len(p.lat)) / p.busy.Seconds(), "1/s"},
		"cpu_ms_per_op": {ms(p.cpu) / float64(p.attempted), "ms"},
		"peak_rss_mb":   {rssMiB, "MiB"},
	}
	if s.tailOK {
		metrics["p90_ms"] = metric{ms(s.p90), "ms"}
	}
	return metrics, s.tailOK
}

// pass is one measured sequence of ops.
type pass struct {
	lat               []time.Duration
	busy              time.Duration // sum of op latencies
	cpu               time.Duration // CPU time of the process doing the work
	attempted, failed int
}

func (p pass) errorRate() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

// measurePass runs op on first, first+1, ... for the given seconds (and
// at least minN ops, up to three times the seconds; at most maxN ops when
// maxN > 0). Only op is timed; inst's check is not. An op whose call or
// check fails counts as failed. CPU time is that of process pid.
func measurePass(inst instance, op func(i int) error, first, seconds, minN, maxN, pid int) (pass, error) {
	var p pass
	cpu0, err := procCPU(pid)
	if err != nil {
		return p, err
	}
	start := time.Now()
	soft, hard := time.Duration(seconds)*time.Second, 3*time.Duration(seconds)*time.Second
	for i := first; ; i++ {
		el := time.Since(start)
		if el >= hard || (el >= soft && p.attempted >= minN) || (maxN > 0 && p.attempted >= maxN) {
			break
		}
		t0 := time.Now()
		err := op(i)
		d := time.Since(t0)
		if err == nil {
			err = inst.check(i)
		}
		p.attempted++
		p.lat = append(p.lat, d)
		p.busy += d
		if err != nil {
			p.failed++
			if p.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			}
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// layerStats collects per-op samples of per-layer metrics; each is
// reported as its median over the traced ops, except the runtime
// counters, which are means: most ops run no GC cycle, so a median would
// read 0.
type layerStats map[string][]float64

func (l layerStats) add(name string, v float64) { l[name] = append(l[name], v) }

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json gives them. A workload reports 0 for a layer it never
// calls.
var perLayer = []struct{ name, unit string }{
	{"service.handler_us", "us"},
	{"service.socket_us", "us"},
	{"service.allocs_per_req", "count"},
	{"service.body_bytes", "bytes"},
	{"scenario.lower_us", "us"},
	{"scenario.decide_at_cell_us", "us"},
	{"scenario.decide_model_us", "us"},
	{"scenario.decide_portfolio_ms", "ms"},
	{"scenario.frontiers_ms", "ms"},
	{"scenario.report_ms", "ms"},
	{"scenario.write_json_ms", "ms"},
	{"core.decide_us", "us"},
	{"core.decisions_per_op", "count"},
	{"workload.refresh_us", "us"},
	{"workload.get_stats_us", "us"},
	{"workload.execute_us_per_cell", "us"},
	{"workload.store_us_per_cell", "us"},
	{"workload.flush_ms", "ms"},
	{"workload.get_stats_open_us", "us"},
	{"workload.index_load_ms", "ms"},
	{"workload.bytes_read", "bytes"},
	{"workload.fetch_assemble_ms", "ms"},
	{"workload.cells_from_segment", "count"},
	{"tcpsim.engine_runs_per_op", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"self.service_ms", "ms"},
	{"self.scenario_ms", "ms"},
	{"self.workload_ms", "ms"},
	{"self.uncovered_ms", "ms"},
	{"trace.op_mean_ms", "ms"},
	{"trace.p50_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"rung.cold_gomaxprocs1_p50_ms", "ms"},
	{"rung.cold_gomaxprocs2_p50_ms", "ms"},
	{"rung.store_us_per_cell_disk", "us"},
	{"rung.reopen_gomaxprocs1_p50_ms", "ms"},
	{"rung.reopen_gomaxprocs2_p50_ms", "ms"},
}

// tracedRun sets the workload up once, measures an untraced pass and a
// traced pass of seconds/2 each, and reports the per-layer metrics.
func tracedRun(e *env, def workloadDef, work string, o options, info io.Writer) (*result, error) {
	inst, err := def.setup(e, filepath.Join(work, "setup"))
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", def.name, err)
	}
	defer inst.close()
	half := max(1, o.seconds/2)
	// The traced pass measures at least tracedMin and at most tracedMax
	// ops, so that splitting fast ops afterwards stays within the run.
	const tracedMin, tracedMax = 20, 500
	plain, err := measurePass(inst, inst.op, 0, half, tracedMin, 0, inst.pid())
	if err != nil {
		return nil, err
	}
	ls := layerStats{}
	rec := newRecorder()
	tracedOp := func(i int) error {
		root := rec.begin(i, -1, "op")
		err := inst.op(i)
		rec.finish(root)
		return err
	}
	tr, err := measurePass(inst, tracedOp, plain.attempted, half, tracedMin, tracedMax, inst.pid())
	if err != nil {
		return nil, err
	}
	attempted, failed := plain.attempted+tr.attempted, plain.failed+tr.failed
	for _, s := range append([]span(nil), rec.spans...) {
		if s.Name != "op" {
			continue
		}
		if err := inst.split(rec, s.ID, ls); err != nil {
			return nil, fmt.Errorf("splitting op %d: %w", s.Op, err)
		}
	}
	if err := gridRungs(e, def.name, filepath.Join(work, "grid"), ls, info); err != nil {
		return nil, fmt.Errorf("grid rungs: %w", err)
	}
	if err := portfolioRung(e, def.name, filepath.Join(work, "portfolio"), ls); err != nil {
		return nil, fmt.Errorf("portfolio rung: %w", err)
	}

	ops := spanDurations(rec.spans, "op")
	traced := summarize(ops)
	untraced := summarize(plain.lat)
	var opSum time.Duration
	for _, d := range ops {
		opSum += d
	}
	n := float64(len(ops))
	self := layerSelf(rec.spans)
	// The layer self times and the uncovered remainder must add up to the
	// traced op time; anything else means the span tree is malformed.
	consistent := addsUp(rec.spans, self)
	if !consistent {
		fmt.Fprintf(info, "info: layer self times do not sum to the traced op time %v\n", opSum)
	}
	ls.add("self.service_ms", ms(self["service"])/n)
	ls.add("self.scenario_ms", ms(self["scenario"])/n)
	ls.add("self.workload_ms", ms(self["workload"])/n)
	ls.add("self.uncovered_ms", ms(self[uncovered])/n)
	ls.add("trace.op_mean_ms", ms(opSum)/n)
	ls.add("trace.p50_ms", ms(traced.p50))
	ls.add("trace.untraced_p50_ms", ms(untraced.p50))
	ls.add("trace.overhead_ms", ms(traced.p50-untraced.p50))

	res := &result{
		Correct:   failed == 0 && consistent,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(perLayer)),
	}
	for _, m := range perLayer {
		v := median(ls[m.name])
		if strings.HasPrefix(m.name, "runtime.") {
			v = mean(ls[m.name])
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	for name := range ls {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not listed", name)
		}
	}
	if err := writeSpans(rec, e.traces, def.name, o.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "info: traced_ops=%d untraced_ops=%d spans=%d layers=%v\n",
		len(ops), untraced.n, len(rec.spans), sortedKeys(self))
	return res, nil
}

// writeSpans dumps the recorder, one JSON span per line.
func writeSpans(rec *recorder, dir, name string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
