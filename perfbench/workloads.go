package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/units"
	"repro/internal/workload"
)

// env is what every workload's set-up needs.
type env struct {
	seed    int64
	decided string // the decided binary
	root    string // the checkout the benchmark runs from
	traces  string // where traced runs write their spans
}

// instance is one set-up workload. Only op is timed.
type instance interface {
	// pid is the process that does the work.
	pid() int
	// op sends request i.
	op(i int) error
	// check verifies op i's output; an error counts the op as failed.
	check(i int) error
	// split replays the call sequence of the traced op whose root span
	// is root in process and grafts its spans under the root. The traced
	// run splits after its traced pass, so the replays never sit between
	// two measured requests.
	split(rec *recorder, root int, ls layerStats) error
	close() error
}

type workloadDef struct {
	name  string
	setup func(e *env, dir string) (instance, error)
}

var defs = []workloadDef{
	{name: "decide_hot", setup: setupDecideHot},
	{name: "decide_model", setup: setupDecideModel},
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func names() []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// seedGrid computes a grid into dir through a fresh cache on one worker,
// the way a batch CLI run fills a cache directory.
func seedGrid(dir string, a workload.Axes) (*workload.GridResult, error) {
	c := workload.NewGridCache()
	c.SetDiskDir(dir)
	g, st, err := c.GetStats(a, 1)
	if err != nil {
		return nil, err
	}
	if st.EngineRuns != int64(a.Size()) {
		return nil, fmt.Errorf("seeding %d cells ran the engine %d times", a.Size(), st.EngineRuns)
	}
	return g, nil
}

// checkWarm fails an op of a warm workload that ran the engine.
func checkWarm(st workload.CacheStats, runs int64) error {
	if st.EngineRuns != 0 || runs != 0 {
		return fmt.Errorf("warm op ran the engine: CacheStats.EngineRuns=%d, engine run count grew by %d", st.EngineRuns, runs)
	}
	return nil
}

// checkRows fails when a warm grid's rows differ from those recorded when
// set-up computed it.
func checkRows(got, want []workload.GridRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Cell.Index != w.Cell.Index || g.SSS != w.SSS || g.Worst != w.Worst {
			return fmt.Errorf("row %d: sss=%v worst=%v, set-up recorded sss=%v worst=%v", i, g.SSS, g.Worst, w.SSS, w.Worst)
		}
	}
	return nil
}

// stepFunc runs one public call of an op.
type stepFunc func(name string, fn func() error) error

// untraced runs each call as it is.
func untraced(_ string, fn func() error) error { return fn() }

// stepper returns a stepFunc that records each call as a span of op
// under root.
func stepper(rec *recorder, op, root int) stepFunc {
	return func(name string, fn func() error) error { return rec.call(op, root, name, fn) }
}

// memDelta is the runtime counters' change over one op.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop(ls layerStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ls.add("runtime.allocs_per_op", float64(after.Mallocs-m.before.Mallocs))
	ls.add("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-m.before.TotalAlloc))
	ls.add("runtime.gc_cycles_per_op", float64(after.NumGC-m.before.NumGC))
	ls.add("runtime.gc_pause_ms_per_op", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}

// reopen opens a compacted segment the way a fresh process does: drop
// the resident index, then a new cache's GetStats. The grid rungs use it
// on the cold grid's pre-seeded 1280-cell segment, which takes the
// planner's streaming read path.
type reopen struct {
	dir  string
	axes workload.Axes
	want []workload.GridRow

	last     *workload.GridResult
	lastSt   workload.CacheStats
	lastRuns int64
}

func (r *reopen) open(workers int) error {
	runs := workload.EngineRunCount()
	workload.ResetSegmentStores()
	c := workload.NewGridCache()
	c.SetDiskDir(r.dir)
	var err error
	r.last, r.lastSt, err = c.GetStats(r.axes, workers)
	r.lastRuns = workload.EngineRunCount() - runs
	return err
}

// check fails an open that ran the engine or whose rows differ from
// those set-up recorded.
func (r *reopen) check() error {
	if err := checkWarm(r.lastSt, r.lastRuns); err != nil {
		return err
	}
	return checkRows(r.last.Rows, r.want)
}

// rung reports the open's layer counters and its GOMAXPROCS scaling.
func (r *reopen) rung(ls layerStats) error {
	for k := 0; k < 20; k++ {
		runtime.GC()
		before := workload.ReadCacheStats()
		t0 := time.Now()
		err := r.open(1)
		d := time.Since(t0)
		if err == nil {
			err = r.check()
		}
		if err != nil {
			return err
		}
		st := workload.ReadCacheStats().Since(before)
		ls.add("workload.get_stats_open_us", us(d))
		ls.add("workload.index_load_ms", ms(st.IndexLoad))
		ls.add("workload.fetch_assemble_ms", ms(d-st.IndexLoad))
		ls.add("workload.bytes_read", float64(st.BytesRead))
		ls.add("workload.cells_from_segment", float64(r.lastSt.CellsFromSegment))
	}
	return scalingRung(ls, "reopen", func(workers int) error {
		if err := r.open(workers); err != nil {
			return err
		}
		return r.check()
	}, func() error { runtime.GC(); return nil })
}

// scalingRung measures op at GOMAXPROCS=1 and 2 with as many workers,
// for about two seconds each, and reports both medians as
// rung.<name>_gomaxprocs<n>_p50_ms. prepare runs untimed before each op.
func scalingRung(ls layerStats, name string, op func(workers int) error, prepare func() error) error {
	defer runtime.GOMAXPROCS(1)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var lat []time.Duration
		start := time.Now()
		for time.Since(start) < 2*time.Second || len(lat) < 5 {
			if err := prepare(); err != nil {
				return err
			}
			t0 := time.Now()
			if err := op(procs); err != nil {
				return err
			}
			lat = append(lat, time.Since(t0))
		}
		ls.add(fmt.Sprintf("rung.%s_gomaxprocs%d_p50_ms", name, procs), ms(medianDur(lat)))
	}
	return nil
}

// gridCold is the cold-grid rung: grids no earlier op ran, appended into
// a copy of a cache that set-up pre-seeded. It is a rung, not a gated
// workload, because its op is the engine's: on a host whose cores
// alternate between two speeds about 1.8x apart, its median did not hold
// still from run to run (see README.md).
type gridCold struct {
	e        *env
	dir      string
	pristine string // the pre-seeded cache, copied before every op
	preseed  reopen // an open of the pristine cache, for the read-path rung
	warm     workload.Axes
	opDir    string
	next     int // index of the next op

	axes     workload.Axes
	last     *workload.GridResult
	lastSt   workload.CacheStats
	lastRuns int64
}

// preseedShift, added to the seed's sizeOffset, keeps the pre-seeded
// cache's cells apart from the ops' grids, which op i shifts by i. Each
// shift is a tiny fraction of a transfer.
const preseedShift = 1 << 21

// coldOps is how many traced cold ops the rung measures.
const coldOps = 10

// gridRungs measures the grid layers in every traced run: traced cold
// ops (engine, record encode, store append, sidecar flush), the
// GOMAXPROCS and disk rungs, and fresh-process reopens of the pre-seeded
// segment. Its spans go to their own trace file, apart from the
// workload's ops.
func gridRungs(e *env, name, dir string, ls layerStats, info io.Writer) error {
	g, err := setupGridCold(e, dir)
	if err != nil {
		return fmt.Errorf("cold grid set-up: %w", err)
	}
	defer g.close()
	rec := newRecorder()
	for k := 0; k < coldOps; k++ {
		if err := g.prepare(); err != nil {
			return err
		}
		if err := g.traced(rec, ls); err != nil {
			return err
		}
		if err := g.check(); err != nil {
			return err
		}
	}
	if err := writeSpans(rec, e.traces, name+"-grid", e.seed); err != nil {
		return err
	}
	return g.rungs(ls, info)
}

func setupGridCold(e *env, dir string) (*gridCold, error) {
	g := &gridCold{e: e, dir: dir, pristine: filepath.Join(dir, "seeded")}
	a, err := denseShape.axes(sizeOffset(e.seed) + preseedShift)
	if err != nil {
		return nil, err
	}
	seeded, err := seedGrid(g.pristine, a)
	if err != nil {
		return nil, err
	}
	g.preseed = reopen{dir: g.pristine, axes: a, want: seeded.Rows}
	g.warm = firstCell(a)
	if _, err := workload.CompactDiskCache(g.pristine); err != nil {
		return nil, err
	}
	workload.CloseDiskCache(g.pristine)
	return g, nil
}

// prepare copies the pre-seeded cache into a fresh directory for the next
// op and loads its index with a one-cell warm read, so the op starts from
// a resident index of realistic size, as a long-lived process would. It
// also collects the heap, so every op starts from the heap a fresh
// process would have.
func (g *gridCold) prepare() error {
	if err := g.dropOpDir(); err != nil {
		return err
	}
	g.opDir = filepath.Join(g.dir, fmt.Sprintf("op-%d", g.next))
	if err := copyDir(g.pristine, g.opDir); err != nil {
		return err
	}
	c := workload.NewGridCache()
	c.SetDiskDir(g.opDir)
	_, st, err := c.GetStats(g.warm, 1)
	if err != nil {
		return err
	}
	runtime.GC()
	return checkWarm(st, 0)
}

func (g *gridCold) dropOpDir() error {
	if g.opDir == "" {
		return nil
	}
	workload.CloseDiskCache(g.opDir)
	err := os.RemoveAll(g.opDir)
	g.opDir = ""
	return err
}

// cold is the op: a new cache's GetStats on the next op's grid.
func (g *gridCold) cold(dir string, workers int, step stepFunc) error {
	var err error
	if g.axes, err = coldShape.axes(sizeOffset(g.e.seed) + units.ByteSize(g.next)); err != nil {
		return err
	}
	g.next++
	runs := workload.EngineRunCount()
	var c *workload.GridCache
	step("workload.new_grid_cache", func() error { c = workload.NewGridCache(); c.SetDiskDir(dir); return nil })
	err = step("workload.get_stats", func() error {
		var err error
		g.last, g.lastSt, err = c.GetStats(g.axes, workers)
		return err
	})
	g.lastRuns = workload.EngineRunCount() - runs
	return err
}

// check: a cold op runs the engine once per cell and returns a full grid.
func (g *gridCold) check() error {
	n := int64(g.axes.Size())
	if g.lastSt.EngineRuns != n || g.lastRuns != n {
		return fmt.Errorf("cold op of %d cells: CacheStats.EngineRuns=%d, engine run count grew by %d", n, g.lastSt.EngineRuns, g.lastRuns)
	}
	if len(g.last.Rows) != int(n) {
		return fmt.Errorf("cold op returned %d rows, want %d", len(g.last.Rows), n)
	}
	for _, r := range g.last.Rows {
		if !(r.SSS > 0) || r.Worst <= 0 {
			return fmt.Errorf("cell %d: sss=%v worst=%v", r.Cell.Index, r.SSS, r.Worst)
		}
	}
	return nil
}

func (g *gridCold) close() error {
	g.dropOpDir()
	workload.ResetSegmentStores()
	return os.RemoveAll(g.dir)
}

// traced runs the cold op with spans, then splits it: the same cells
// executed with the cache off give the engine's share (and the rows the
// cold op must match), and a stale sidecar gives the flush cost.
func (g *gridCold) traced(rec *recorder, ls layerStats) error {
	i := g.next
	root := rec.begin(i, -1, "op")
	err := g.cold(g.opDir, 1, stepper(rec, i, root))
	rec.finish(root)
	if err != nil {
		return err
	}
	getStats := rec.spans[len(rec.spans)-1].dur()
	cells := float64(g.axes.Size())
	t0 := time.Now()
	ref, err := workload.RunGridParallel(g.axes, 1)
	if err != nil {
		return err
	}
	execute := time.Since(t0)
	if !reflect.DeepEqual(ref.Rows, g.last.Rows) {
		return fmt.Errorf("cold op rows differ from RunGridParallel with the cache off")
	}
	flush, err := g.flushCost()
	if err != nil {
		return err
	}
	ls.add("workload.execute_us_per_cell", us(execute)/cells)
	ls.add("workload.store_us_per_cell", us(getStats-execute)/cells)
	ls.add("workload.flush_ms", ms(flush))
	ls.add("tcpsim.engine_runs_per_op", float64(g.lastRuns))
	return nil
}

// flushCost times the sidecar rewrite at the op's final index size. It
// restores the pre-op sidecar, so the next open indexes the op's records
// by a tail scan and leaves the index dirty; a one-cell warm GetStats
// then rewrites the whole sidecar. Its time minus the index load is the
// flush.
func (g *gridCold) flushCost() (time.Duration, error) {
	workload.CloseDiskCache(g.opDir)
	if err := copyFile(filepath.Join(g.pristine, "cells.idx"), filepath.Join(g.opDir, "cells.idx")); err != nil {
		return 0, err
	}
	c := workload.NewGridCache()
	c.SetDiskDir(g.opDir)
	before := workload.ReadCacheStats()
	t0 := time.Now()
	_, st, err := c.GetStats(g.warm, 1)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if err := checkWarm(st, 0); err != nil {
		return 0, err
	}
	return d - workload.ReadCacheStats().Since(before).IndexLoad, nil
}

// rungs: cold ops at GOMAXPROCS=1 and 2 (engine-pool scaling), one cold
// op on the filesystem that holds the default cache directory, and
// fresh-process opens of the pre-seeded segment (the read path).
func (g *gridCold) rungs(ls layerStats, info io.Writer) error {
	err := scalingRung(ls, "cold", func(workers int) error {
		if err := g.cold(g.opDir, workers, untraced); err != nil {
			return err
		}
		return g.check()
	}, g.prepare)
	if err != nil {
		return err
	}
	if err := g.diskRung(ls, info); err != nil {
		return err
	}
	// Last: the opens drop every resident index, the op directory's too.
	return g.preseed.rung(ls)
}

// diskRung runs one cold op in a temporary directory beside the default
// cache directory (never in it), pre-seeded like every other op.
func (g *gridCold) diskRung(ls layerStats, info io.Writer) error {
	def, err := workload.DefaultDiskCacheDir()
	if err != nil {
		return err
	}
	parent := filepath.Dir(def)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, "perfbench-disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "cache")
	if err := copyDir(g.pristine, dir); err != nil {
		return err
	}
	defer workload.CloseDiskCache(dir)
	c := workload.NewGridCache()
	c.SetDiskDir(dir)
	if _, _, err := c.GetStats(g.warm, 1); err != nil {
		return err
	}
	t0 := time.Now()
	if err := g.cold(dir, 1, untraced); err != nil {
		return err
	}
	d := time.Since(t0)
	if err := g.check(); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := workload.RunGridParallel(g.axes, 1); err != nil {
		return err
	}
	execute := time.Since(t0)
	ls.add("rung.store_us_per_cell_disk", us(d-execute)/float64(g.axes.Size()))
	fmt.Fprintf(info, "info: disk rung dir fs=%s (beside %s)\n", fsType(tmp), strings.TrimPrefix(def, g.e.root+"/"))
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
