// Package service is the HTTP layer of cmd/decided: the paper's
// stream-or-store decision, served per request from resident state
// instead of per-process batch runs. The server holds one GridCache —
// grid memo over cell store over segment index — for the whole process
// lifetime, so a warm cell costs a memo or segment-index lookup
// (microseconds, zero engine runs) and N concurrent requests for the
// same cold cell coalesce through the memo's single-flight entry into
// one simulation.
//
// Request lifecycle (the measuring endpoints):
//
//	decode+validate → semaphore → RefreshDiskCache → GetStats → decide
//
// Validation runs before the semaphore (malformed requests never queue,
// let alone simulate). The semaphore bounds how many requests may hold
// engine workers at once; it is acquired with the request context, so a
// client that gives up stops waiting without consuming a slot. The
// refresh re-synchronizes the resident segment index with whatever
// sibling batch CLIs did to the shared cache directory — appends,
// compaction, purge — one stat() when nothing changed. GetStats is the
// request-scoped cache entry point: its CacheStats describe how THIS
// request's cells were served, exact under concurrency.
//
// Graceful shutdown is the caller's (cmd/decided's) job via
// http.Server.Shutdown, which stops new connections and drains
// in-flight handlers — and with them any engine runs — before
// returning; the caller then flushes the segment index sidecar once and
// releases the resident store (workload.CloseDiskCache).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/tcpsim"
	"repro/internal/workload"
)

// maxRequestBody bounds a request body read. The largest legitimate
// body — a portfolio of dozens of workloads plus a grid spec — is a few
// KB; 1MB is generous without letting a client balloon the heap.
const maxRequestBody = 1 << 20

// Config sizes a Server.
type Config struct {
	// CacheDir is the resolved sweep cache directory ("" = persistence
	// off: every cold cell recomputes after a restart, warm cells still
	// serve from the memo).
	CacheDir string
	// MaxInflight bounds how many requests may run simulations at once
	// (<=0 selects 4). Warm requests are not limited by it — they hold
	// the slot only for the microseconds their lookups take.
	MaxInflight int
	// MaxCells rejects grid requests larger than this many cells
	// (<=0 selects 4096) — a typo'd axis list must not commit the
	// server to a week of simulation.
	MaxCells int
}

// Server answers decision requests over one resident cache hierarchy.
// It is an http.Handler; wrap it in an http.Server to serve.
type Server struct {
	cfg   Config
	cache *workload.GridCache
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time
	base  workload.CacheStats

	reqDecide    atomic.Int64
	reqPortfolio atomic.Int64
	reqStats     atomic.Int64
}

// New builds a server over cfg. The cache starts empty; the segment
// index for cfg.CacheDir loads lazily on the first request that needs
// it (and is shared process-wide with any other cache on the same
// directory).
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	s := &Server{
		cfg:   cfg,
		cache: workload.NewGridCache(),
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxInflight),
		start: time.Now(),
		base:  workload.ReadCacheStats(),
	}
	s.cache.SetDiskDir(cfg.CacheDir)
	// Method-qualified patterns: the mux answers 405 (with Allow) for
	// wrong methods by itself.
	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("POST /v1/portfolio", s.handlePortfolio)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorResponse is every non-2xx body: one JSON object, one message.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON answers code with v as indented JSON. v is encoded before
// the status goes out, so a value JSON cannot carry (a NaN or infinite
// float) answers 500 with an error body instead of a 200 with none.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		// A struct holding one string always encodes.
		body, _ = json.MarshalIndent(errorResponse{Error: fmt.Sprintf("encoding response: %v", err)}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// decodeRequest parses a JSON body strictly: bounded size, unknown
// fields rejected (a typo'd axis name must not silently decide the
// default grid), trailing garbage rejected.
func decodeRequest(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("parsing request body: trailing data after JSON document")
	}
	return nil
}

// acquire takes an engine slot, giving up when the client does. A nil
// error means the caller must release().
func (s *Server) acquire(r *http.Request) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

func (s *Server) release() { <-s.sem }

// measure serves one grid through the resident cache: refresh the
// segment index against sibling writers, then the request-scoped
// lookup on a GOMAXPROCS engine pool. Caller holds an engine slot.
func (s *Server) measure(a workload.Axes) (*workload.GridResult, workload.CacheStats, error) {
	workload.RefreshDiskCache(s.cfg.CacheDir)
	return s.cache.GetStats(a, 0)
}

// measureStatus is the status of a failed measure. Validation has
// already refused every cell the model cannot run, so a failure is a
// server fault (500), except a cell that does not drain within the
// simulator's MaxTime horizon: that is a property of the request's input
// (422).
func measureStatus(err error) int {
	if errors.Is(err, tcpsim.ErrHorizon) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// checkSize enforces the per-request cell budget.
func (s *Server) checkSize(a workload.Axes) error {
	if n := a.Size(); n > s.cfg.MaxCells {
		return fmt.Errorf("grid has %d cells, server limit is %d", n, s.cfg.MaxCells)
	}
	return nil
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	s.reqDecide.Add(1)
	var req scenario.DecideRequest
	if err := decodeRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, axes, err := req.Lower()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if axes == nil {
		// Model-only: the workload carries its own transfer side; no
		// simulation, no cache, no engine slot.
		resp, err := scenario.DecideModel(wl)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if err := s.acquire(r); err != nil {
		return // client gone; nothing to answer
	}
	defer s.release()
	g, st, err := s.measure(*axes)
	if err != nil {
		writeError(w, measureStatus(err), err)
		return
	}
	resp, err := scenario.DecideAtCell(wl, g, req.Prefilter)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	cache := scenario.NewCacheStatsJSON(st)
	resp.Cache = &cache
	w.Header().Set("X-Cache-Stats", st.String())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePortfolio(w http.ResponseWriter, r *http.Request) {
	s.reqPortfolio.Add(1)
	var req scenario.PortfolioRequest
	if err := decodeRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pf, axes, err := req.Lower()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.checkSize(axes); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.acquire(r); err != nil {
		return
	}
	defer s.release()
	g, st, err := s.measure(axes)
	if err != nil {
		writeError(w, measureStatus(err), err)
		return
	}
	pg, err := scenario.DecidePortfolio(pf, g)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The body is the CLI's -json archive, byte for byte: writeJSON
	// indents as PortfolioGrid.WriteJSON does, and answers 500 with an
	// error body where the report cannot be encoded. The request's cache
	// attribution rides in a header so it cannot perturb the body.
	w.Header().Set("X-Cache-Stats", st.String())
	writeJSON(w, http.StatusOK, pg.Report())
}

// statsResponse is GET /v1/stats: uptime, per-endpoint request counts,
// and the process cache counters as a delta since the server started —
// both structured and as the CLIs' greppable cache-stats line.
type statsResponse struct {
	UptimeS   float64                 `json:"uptime_s"`
	Requests  map[string]int64        `json:"requests"`
	Cache     scenario.CacheStatsJSON `json:"cache"`
	CacheLine string                  `json:"cache_line"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqStats.Add(1)
	delta := workload.ReadCacheStats().Since(s.base)
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeS: time.Since(s.start).Seconds(),
		Requests: map[string]int64{
			"decide":    s.reqDecide.Load(),
			"portfolio": s.reqPortfolio.Load(),
			"stats":     s.reqStats.Load(),
		},
		Cache:     scenario.NewCacheStatsJSON(delta),
		CacheLine: delta.String(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
