package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/units"
	"repro/internal/workload"
)

// portfolioFile is the four-workload portfolio both server workloads
// decide, relative to the checkout.
const portfolioFile = "examples/portfolio/portfolio.json"

func loadPortfolio(e *env) (*scenario.File, error) {
	f, err := os.Open(filepath.Join(e.root, portfolioFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.Load(f)
}

// hot is what both server workloads share: a seeded cache directory, a
// decided process over it, and the in-process twins the traced run
// replays requests on.
type hot struct {
	dir   string
	srv   *server
	cache *workload.GridCache // in-process cache over dir, memo-warm
	local *service.Server     // in-process handler over dir

	status int
	header string
	body   []byte
}

func newHot(dir string) *hot {
	h := &hot{dir: dir, cache: workload.NewGridCache()}
	h.cache.SetDiskDir(dir)
	return h
}

func (h *hot) pid() int { return h.srv.pid() }

func (h *hot) post(path string, body []byte) error {
	var err error
	h.status, h.header, h.body, err = h.srv.post(path, body)
	return err
}

func (h *hot) close() error {
	var err error
	if h.srv != nil {
		err = h.srv.stop()
	}
	workload.CloseDiskCache(h.dir)
	if rmErr := os.RemoveAll(h.dir); err == nil {
		err = rmErr
	}
	return err
}

// handler times the in-process ServeHTTP of body and its allocations.
func (h *hot) handler(path string, body []byte, ls layerStats) (time.Duration, error) {
	if h.local == nil {
		h.local = service.New(service.Config{CacheDir: h.dir, MaxInflight: 1})
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	h.local.ServeHTTP(w, req)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if w.Code != http.StatusOK {
		return 0, fmt.Errorf("in-process %s: status %d: %s", path, w.Code, w.Body)
	}
	ls.add("service.allocs_per_req", float64(m1.Mallocs-m0.Mallocs))
	return d, nil
}

// decodeStrict decodes a request body the way the service does.
func decodeStrict(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// decideHot is decide_hot: one client, POST /v1/decide for 64 memo-warm
// cells in a seeded order.
type decideHot struct {
	*hot
	bodies [][]byte
	want   []scenario.DecideResponse
	order  []int
}

// decideCells is how many distinct cells decide_hot asks about.
const decideCells = 64

func setupDecideHot(e *env, dir string) (instance, error) {
	pf, err := loadPortfolio(e)
	if err != nil {
		return nil, err
	}
	d := &decideHot{hot: newHot(dir)}
	// Set-up seeds a 320-cell grid; the requests ask about 64 of its cells.
	off := sizeOffset(e.seed)
	a, err := decideShape.axes(off)
	if err != nil {
		return nil, err
	}
	if _, err := seedGrid(dir, a); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, cell := range rng.Perm(decideShape.size())[:decideCells] {
		req := scenario.DecideRequest{Workload: pf.Workloads[rng.Intn(len(pf.Workloads))], Cell: decideShape.spec(off, cell)}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		wl, axes, err := req.Lower()
		if err != nil {
			return nil, err
		}
		g, _, err := d.cache.GetStats(*axes, 1)
		if err != nil {
			return nil, err
		}
		want, err := scenario.DecideAtCell(wl, g, req.Prefilter)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, body)
		d.want = append(d.want, *want)
	}
	d.order = rng.Perm(decideCells)
	if d.srv, err = startServer(e.decided, dir); err != nil {
		return nil, err
	}
	// One request per cell fills decided's memo from the segment.
	for k, body := range d.bodies {
		if err := d.post("/v1/decide", body); err != nil {
			d.close()
			return nil, err
		}
		if err := checkDecide(d.status, d.body, d.want[k]); err != nil {
			d.close()
			return nil, fmt.Errorf("warming cell %d: %w", k, err)
		}
	}
	return d, nil
}

func (d *decideHot) cell(i int) int { return d.order[i%len(d.order)] }

func (d *decideHot) op(i int) error { return d.post("/v1/decide", d.bodies[d.cell(i)]) }

func (d *decideHot) check(i int) error { return checkDecide(d.status, d.body, d.want[d.cell(i)]) }

// checkDecide fails a decide response whose verdict, sss or worst_s
// differs from the in-process DecideAtCell on the same cell, or that
// reports an engine run.
func checkDecide(status int, body []byte, want scenario.DecideResponse) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	var got scenario.DecideResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if got.Measured == nil || got.Cache == nil {
		return fmt.Errorf("cell-mode response without measured or cache block: %s", body)
	}
	if got.Decision != want.Decision || got.Measured.SSS != want.Measured.SSS || got.Measured.WorstS != want.Measured.WorstS {
		return fmt.Errorf("got %s sss=%v worst_s=%v, in-process DecideAtCell says %s sss=%v worst_s=%v",
			got.Decision, got.Measured.SSS, got.Measured.WorstS, want.Decision, want.Measured.SSS, want.Measured.WorstS)
	}
	return checkWarm(workload.CacheStats{EngineRuns: got.Cache.EngineRuns}, 0)
}

// split replays the handler's public call sequence for a traced op in
// process and lays its spans over the socket request.
func (d *decideHot) split(rec *recorder, root int, ls layerStats) error {
	i := rec.spans[root].Op
	body := d.bodies[d.cell(i)]
	handler, err := d.handler("/v1/decide", body, ls)
	if err != nil {
		return err
	}
	replay := newRecorder()
	mem := startMem()
	top := replay.begin(i, -1, "service.handler")
	s := &steps{step: stepper(replay, i, top)}
	var req scenario.DecideRequest
	var wl scenario.Workload
	var axes *workload.Axes
	var g *workload.GridResult
	var st workload.CacheStats
	var resp *scenario.DecideResponse
	s.do("scenario.lower", func() (err error) {
		if err = decodeStrict(body, &req); err == nil {
			wl, axes, err = req.Lower()
		}
		return err
	})
	s.do("workload.refresh", func() error { workload.RefreshDiskCache(d.dir); return nil })
	s.do("workload.get_stats", func() (err error) { g, st, err = d.cache.GetStats(*axes, 1); return err })
	s.do("scenario.decide_at_cell", func() (err error) { resp, err = scenario.DecideAtCell(wl, g, req.Prefilter); return err })
	s.do("service.encode", func() error {
		cache := scenario.NewCacheStatsJSON(st)
		resp.Cache = &cache
		_, err := encodeResponse(resp)
		return err
	})
	err = s.err
	replay.finish(top)
	mem.stop(ls)
	if err != nil {
		return err
	}
	rec.graft(i, root, replay.spans)
	ls.add("service.handler_us", us(handler))
	ls.add("service.socket_us", us(rec.spans[root].dur()-handler))
	for _, name := range []string{"scenario.lower", "workload.refresh", "workload.get_stats", "scenario.decide_at_cell"} {
		ls.add(name+"_us", us(spanDurations(replay.spans, name)[0]))
	}
	// The one core.Decide call DecideAtCell makes, with the input the
	// scenario layer builds for the cell, timed alone.
	pf, err := scenario.NewPortfolio(wl.Name, &scenario.File{Workloads: []scenario.Workload{wl}})
	if err != nil {
		return err
	}
	pg, err := scenario.DecidePortfolio(pf, g)
	if err != nil {
		return err
	}
	return decideLayer(pg, ls)
}

// steps runs a sequence of calls as spans and skips the rest after the
// first error.
type steps struct {
	step stepFunc
	err  error
}

func (s *steps) do(name string, fn func() error) {
	if s.err == nil {
		s.err = s.step(name, fn)
	}
}

// decideOpts is a workload's decision constraints, parsed as the
// scenario layer parses them.
func decideOpts(w scenario.Workload) (core.DecideOpts, error) {
	var o core.DecideOpts
	if w.GenerationRate != "" {
		gen, err := units.ParseByteRate(w.GenerationRate)
		if err != nil {
			return o, err
		}
		o.GenerationRate = gen
	}
	if w.Tier != 0 {
		o.Deadline = core.Tier(w.Tier).Budget()
	}
	return o, nil
}

// decideLayer times a decided portfolio's core.Decide calls alone, one
// per cell and workload, on the inputs DecidePortfolio built. Each call
// must reproduce the decision DecidePortfolio recorded, so the options
// decideOpts parses cannot drift from the scenario layer's.
func decideLayer(pg *scenario.PortfolioGrid, ls layerStats) error {
	opts := make([]core.DecideOpts, len(pg.Portfolio.Workloads))
	for k, w := range pg.Portfolio.Workloads {
		var err error
		if opts[k], err = decideOpts(w); err != nil {
			return err
		}
	}
	var ps []core.Params
	var po []core.DecideOpts
	for _, c := range pg.Cells {
		for _, dec := range c.Decisions {
			d, err := core.Decide(dec.Params, opts[dec.Scenario])
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(d, dec.Decision) {
				return fmt.Errorf("core.Decide on cell %d's replayed input differs from DecidePortfolio's decision", c.Row.Cell.Index)
			}
			ps = append(ps, dec.Params)
			po = append(po, opts[dec.Scenario])
		}
	}
	ls.add("core.decide_us", timeDecide(ps, po))
	ls.add("core.decisions_per_op", float64(len(ps)))
	return nil
}

// timeDecide is the mean time of one core.Decide over the given inputs,
// repeated until at least a millisecond has passed.
func timeDecide(ps []core.Params, opts []core.DecideOpts) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < time.Millisecond {
		for k := range ps {
			core.Decide(ps[k], opts[k])
		}
		n += len(ps)
	}
	return us(time.Since(t0)) / float64(n)
}

// portfolioHot is the portfolio rung's server: POST /v1/portfolio of the
// four-workload portfolio over every sub-grid of a memo-warm 256-cell
// grid, in a seeded order.
type portfolioHot struct {
	*hot
	reqs  [][]byte
	want  [][]byte
	order []int
}

// portfolioSubgrids lists the portfolio rung's grids: each takes the
// first r RTTs, b buffers and c cross fractions of portfolioShape, for 8
// to 256 cells. The list is the same for every seed.
func portfolioSubgrids() []shape {
	var out []shape
	for r := 1; r <= portfolioShape.rtts; r++ {
		for b := 1; b <= portfolioShape.bufs; b++ {
			for c := 1; c <= portfolioShape.crosses; c++ {
				out = append(out, shape{r, b, c})
			}
		}
	}
	return out
}

func setupPortfolioHot(e *env, dir string) (*portfolioHot, error) {
	pf, err := loadPortfolio(e)
	if err != nil {
		return nil, err
	}
	p := &portfolioHot{hot: newHot(dir)}
	off := sizeOffset(e.seed)
	full, err := portfolioShape.axes(off)
	if err != nil {
		return nil, err
	}
	if _, err := seedGrid(dir, full); err != nil {
		return nil, err
	}
	for _, sh := range portfolioSubgrids() {
		req := scenario.PortfolioRequest{Name: "portfolio", Portfolio: *pf, Grid: *sh.spec(off, -1)}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		port, axes, err := req.Lower()
		if err != nil {
			return nil, err
		}
		g, _, err := p.cache.GetStats(axes, 1)
		if err != nil {
			return nil, err
		}
		pg, err := scenario.DecidePortfolio(port, g)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pg.WriteJSON(&buf); err != nil {
			return nil, err
		}
		p.reqs = append(p.reqs, body)
		p.want = append(p.want, buf.Bytes())
	}
	p.order = rand.New(rand.NewSource(e.seed)).Perm(len(p.reqs))
	if p.srv, err = startServer(e.decided, dir); err != nil {
		return nil, err
	}
	// One request per grid fills decided's memo from the segment.
	for k := range p.reqs {
		if err := p.post("/v1/portfolio", p.reqs[k]); err != nil {
			p.close()
			return nil, err
		}
		if err := checkPortfolio(p.status, p.header, p.body, p.want[k]); err != nil {
			p.close()
			return nil, fmt.Errorf("warming grid %d: %w", k, err)
		}
	}
	return p, nil
}

func (p *portfolioHot) grid(i int) int { return p.order[i%len(p.order)] }

func (p *portfolioHot) op(i int) error { return p.post("/v1/portfolio", p.reqs[p.grid(i)]) }

func (p *portfolioHot) check(i int) error {
	return checkPortfolio(p.status, p.header, p.body, p.want[p.grid(i)])
}

var engineRunsRE = regexp.MustCompile(`(?:^| )engine-runs=(\d+)(?: |$)`)

// checkPortfolio fails a portfolio response that is not byte-identical to
// the in-process DecidePortfolio(...).WriteJSON, or whose cache stats
// report an engine run.
func checkPortfolio(status int, cacheHeader string, body, want []byte) error {
	if err := checkBody(status, body, want); err != nil {
		return err
	}
	m := engineRunsRE.FindStringSubmatch(cacheHeader)
	if m == nil {
		return fmt.Errorf("no engine-runs in X-Cache-Stats %q", cacheHeader)
	}
	runs, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return err
	}
	return checkWarm(workload.CacheStats{EngineRuns: runs}, 0)
}

// split replays the handler's public call sequence for a traced op in
// process and lays its spans over the socket request.
func (p *portfolioHot) split(rec *recorder, root int, ls layerStats) error {
	i := rec.spans[root].Op
	body, want := p.reqs[p.grid(i)], p.want[p.grid(i)]
	handler, err := p.handler("/v1/portfolio", body, ls)
	if err != nil {
		return err
	}
	replay := newRecorder()
	mem := startMem()
	top := replay.begin(i, -1, "service.handler")
	s := &steps{step: stepper(replay, i, top)}
	var req scenario.PortfolioRequest
	var port *scenario.Portfolio
	var axes workload.Axes
	var g *workload.GridResult
	var pg *scenario.PortfolioGrid
	var out bytes.Buffer
	s.do("scenario.lower", func() (err error) {
		if err = decodeStrict(body, &req); err == nil {
			port, axes, err = req.Lower()
		}
		return err
	})
	s.do("workload.refresh", func() error { workload.RefreshDiskCache(p.dir); return nil })
	s.do("workload.get_stats", func() (err error) { g, _, err = p.cache.GetStats(axes, 1); return err })
	s.do("scenario.decide_portfolio", func() (err error) { pg, err = scenario.DecidePortfolio(port, g); return err })
	s.do("scenario.write_json", func() error { return pg.WriteJSON(&out) })
	err = s.err
	replay.finish(top)
	mem.stop(ls)
	if err != nil {
		return err
	}
	if !bytes.Equal(out.Bytes(), want) {
		return fmt.Errorf("replayed archive differs from the set-up archive")
	}
	rec.graft(i, root, replay.spans)
	ls.add("service.handler_us", us(handler))
	ls.add("service.socket_us", us(rec.spans[root].dur()-handler))
	ls.add("service.body_bytes", float64(len(want)))
	ls.add("scenario.lower_us", us(spanDurations(replay.spans, "scenario.lower")[0]))
	ls.add("workload.refresh_us", us(spanDurations(replay.spans, "workload.refresh")[0]))
	ls.add("workload.get_stats_us", us(spanDurations(replay.spans, "workload.get_stats")[0]))
	ls.add("scenario.decide_portfolio_ms", ms(spanDurations(replay.spans, "scenario.decide_portfolio")[0]))
	ls.add("scenario.write_json_ms", ms(spanDurations(replay.spans, "scenario.write_json")[0]))
	// Frontiers and Report run inside WriteJSON; each is timed alone.
	t0 := time.Now()
	pg.Frontiers()
	ls.add("scenario.frontiers_ms", ms(time.Since(t0)))
	t0 = time.Now()
	pg.Report()
	ls.add("scenario.report_ms", ms(time.Since(t0)))
	return decideLayer(pg, ls)
}
