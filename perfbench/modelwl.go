package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/core"
	"repro/internal/scenario"
)

// decideModel is decide_model: one client, POST /v1/decide in model mode
// (a workload that carries its own link and transfer rate, no cell) for
// 64 seeded workloads in a seeded order. It takes decide_hot's HTTP/JSON
// path but bypasses the workload layer (no cache, memo, index refresh or
// engine slot), so a change to the cache layers should move decide_hot
// and leave decide_model alone.
type decideModel struct {
	*hot
	bodies [][]byte
	want   [][]byte
	order  []int
}

// modelRequests is how many distinct requests decide_model sends.
const modelRequests = 64

func setupDecideModel(e *env, dir string) (instance, error) {
	pf, err := loadPortfolio(e)
	if err != nil {
		return nil, err
	}
	d := &decideModel{hot: newHot(dir)}
	rng := rand.New(rand.NewSource(e.seed))
	for k := 0; k < modelRequests; k++ {
		w := pf.Workloads[k%len(pf.Workloads)]
		// Effective rates of 0.5–3 GB/s, under every workload's 25 Gbps
		// link, reach both verdicts.
		w.TransferRate = fmt.Sprintf("%dMB/s", 500+rng.Intn(2500))
		req := scenario.DecideRequest{Workload: w}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		wl, axes, err := req.Lower()
		if err != nil {
			return nil, err
		}
		if axes != nil {
			return nil, fmt.Errorf("model request %d lowered to a cell", k)
		}
		resp, err := scenario.DecideModel(wl)
		if err != nil {
			return nil, err
		}
		want, err := encodeResponse(resp)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, body)
		d.want = append(d.want, want)
	}
	d.order = rng.Perm(modelRequests)
	if d.srv, err = startServer(e.decided, dir); err != nil {
		return nil, err
	}
	for k := range d.bodies {
		if err := d.post("/v1/decide", d.bodies[k]); err != nil {
			d.close()
			return nil, err
		}
		if err := checkBody(d.status, d.body, d.want[k]); err != nil {
			d.close()
			return nil, fmt.Errorf("first request %d: %w", k, err)
		}
	}
	return d, nil
}

func (d *decideModel) request(i int) int { return d.order[i%len(d.order)] }

func (d *decideModel) op(i int) error { return d.post("/v1/decide", d.bodies[d.request(i)]) }

func (d *decideModel) check(i int) error { return checkBody(d.status, d.body, d.want[d.request(i)]) }

// split replays the handler's model-mode call sequence for a traced op in
// process and lays its spans over the socket request.
func (d *decideModel) split(rec *recorder, root int, ls layerStats) error {
	i := rec.spans[root].Op
	body, want := d.bodies[d.request(i)], d.want[d.request(i)]
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
	var resp *scenario.DecideResponse
	var out []byte
	s.do("scenario.lower", func() (err error) {
		if err = decodeStrict(body, &req); err == nil {
			wl, _, err = req.Lower()
		}
		return err
	})
	s.do("scenario.decide_model", func() (err error) { resp, err = scenario.DecideModel(wl); return err })
	s.do("service.encode", func() (err error) { out, err = encodeResponse(resp); return err })
	err = s.err
	replay.finish(top)
	mem.stop(ls)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, want) {
		return fmt.Errorf("replayed answer differs from the set-up answer")
	}
	rec.graft(i, root, replay.spans)
	ls.add("service.handler_us", us(handler))
	ls.add("service.socket_us", us(rec.spans[root].dur()-handler))
	ls.add("scenario.lower_us", us(spanDurations(replay.spans, "scenario.lower")[0]))
	ls.add("scenario.decide_model_us", us(spanDurations(replay.spans, "scenario.decide_model")[0]))
	// The one core.Decide call DecideModel makes, timed alone; it must
	// reproduce the answer's gain, so decideOpts cannot drift from the
	// scenario layer's parsing.
	p, err := wl.Params()
	if err != nil {
		return err
	}
	o, err := decideOpts(wl)
	if err != nil {
		return err
	}
	dec, err := core.Decide(p, o)
	if err != nil {
		return err
	}
	if dec.Gain != resp.Gain {
		return fmt.Errorf("core.Decide on the replayed input gives gain %v, DecideModel %v", dec.Gain, resp.Gain)
	}
	ls.add("core.decide_us", timeDecide([]core.Params{p}, []core.DecideOpts{o}))
	ls.add("core.decisions_per_op", 1)
	return nil
}

// encodeResponse encodes v as the service writes a JSON answer.
func encodeResponse(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkBody fails an answer whose status is not 200 or whose body is not
// byte-identical to want, the answer computed in process.
func checkBody(status int, body, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("body (%d bytes) differs from the in-process answer (%d bytes)", len(body), len(want))
	}
	return nil
}

// portfolioRung sends each of the portfolio's 64 grid requests once over
// a decided socket, in every traced run, checks each answer, splits it
// like a workload's op, and reports the portfolio's scenario-layer
// metrics. It is a rung, not a gated workload, because its op is
// instruction-parallel compute whose median drifted with the host by more
// than the benchmark's bounds (see README.md). Its other layers' samples
// are dropped, so they do not mix with the workload's.
func portfolioRung(e *env, name, dir string, ls layerStats) error {
	p, err := setupPortfolioHot(e, dir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer p.close()
	own := layerStats{}
	rec := newRecorder()
	for i := range p.reqs {
		root := rec.begin(i, -1, "op")
		err := p.op(i)
		rec.finish(root)
		if err == nil {
			err = p.check(i)
		}
		if err == nil {
			err = p.split(rec, root, own)
		}
		if err != nil {
			return fmt.Errorf("grid %d: %w", i, err)
		}
	}
	for _, m := range []string{"scenario.decide_portfolio_ms", "scenario.frontiers_ms", "scenario.report_ms", "scenario.write_json_ms", "service.body_bytes"} {
		ls[m] = own[m]
	}
	return writeSpans(rec, e.traces, name+"-portfolio", e.seed)
}
