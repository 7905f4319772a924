package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// maxFuzzWork bounds the engine work one fuzzed body may ask for, in
// flow-rounds (see gridWork): a few tens of milliseconds of simulation.
const maxFuzzWork = 2e6

// gridWork estimates the engine work of a validated grid in flow-rounds:
// per cell, the flows it spawns times the round trips until its offered
// bytes could drain through the capacity cross traffic leaves.
func gridWork(a workload.Axes) float64 {
	work := 0.0
	for _, c := range a.Cells() {
		capacity := float64(c.Capacity)
		if capacity == 0 {
			capacity = float64(a.Net.Capacity)
		}
		capacity *= 1 - c.CrossFraction
		seconds := max(1, float64(int(a.Duration.Seconds())))
		flows := seconds * float64(c.Concurrency*c.ParallelFlows)
		drain := a.Duration.Seconds() + seconds*float64(c.Concurrency)*c.TransferSize.Bytes()*8/capacity
		work += flows * drain / c.RTT.Seconds()
	}
	return work
}

// affordable reports whether the server may be sent body on path within
// the fuzz budget: a body that does not lower is refused before any
// engine run, and one that does must ask for at most maxFuzzWork. The
// bound lives here, in the input filter, never in the server's limits.
func affordable(path string, body []byte) bool {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	var a workload.Axes
	switch path {
	case "/v1/decide":
		var dr scenario.DecideRequest
		if decodeRequest(rec, req, &dr) != nil {
			return true
		}
		_, axes, err := dr.Lower()
		if err != nil || axes == nil {
			return true
		}
		a = *axes
	default:
		var pr scenario.PortfolioRequest
		if decodeRequest(rec, req, &pr) != nil {
			return true
		}
		_, axes, err := pr.Lower()
		if err != nil {
			return true
		}
		a = axes
	}
	return a.Size() <= 64 && gridWork(a) <= maxFuzzWork
}

// FuzzDecideRequest POSTs arbitrary bodies to /v1/decide and
// /v1/portfolio through one Server. Every answer is a 200 with a JSON
// body, a 4xx with a JSON error, or the documented 422 for a cell that
// cannot drain within the horizon: never a 5xx, a panic or an empty 200.
func FuzzDecideRequest(f *testing.F) {
	bodies, err := os.ReadFile("../scenario/testdata/request_bodies.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range strings.Split(string(bodies), "\n") {
		if body != "" && !strings.HasPrefix(body, "#") {
			f.Add([]byte(body))
		}
	}
	for _, tc := range badCells() {
		f.Add([]byte(tc.body))
	}
	s := New(Config{CacheDir: f.TempDir()})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/decide", "/v1/portfolio"} {
			if !affordable(path, body) {
				continue
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			got := rec.Body.Bytes()
			switch code := rec.Code; {
			case code == http.StatusOK:
				if !json.Valid(got) {
					t.Fatalf("%s: 200 with a body that is not JSON: %q", path, got)
				}
			case code >= 400 && code < 500:
				var e errorResponse
				if err := json.Unmarshal(got, &e); err != nil || e.Error == "" {
					t.Fatalf("%s: %d with body %q, want a JSON error", path, code, got)
				}
			default:
				t.Fatalf("%s: status %d: %s", path, code, got)
			}
		}
	})
}
