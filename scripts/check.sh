#!/usr/bin/env bash
# check.sh — the repo's CI gate. Runs formatting, vet, build, the
# dead-export and link-budget gate, the full test suite (root package,
# ./internal/..., and ./cmd/... — `./...` is module-rooted and covers
# them all; the root package's TestBehaviourCorpus replays
# testdata/behaviour), vet and tests of the nested perfbench module, and
# a short benchmark smoke that
# includes the bench-regression comparison against the tracked
# BENCH_sweep.json (run `go run ./cmd/benchjson` without -quick for the
# paper-scale numbers recorded in PERFORMANCE.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Hermetic sweep cache: CLI tests and the smoke run must never read or
# write the developer's real ~/.cache/repro/sweeps.
CACHE_DIR=$(mktemp -d /tmp/repro-check-cache.XXXXXX)
export CACHE_DIR
trap 'rm -rf "$CACHE_DIR"' EXIT

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
# `./...` is module-rooted: it covers the root package, ./internal/...
# and ./cmd/... alike (same for build and test below).
go vet ./...

echo "== go build =="
go build ./...

echo "== dead exports and cmd/decided line budget =="
# Fails on an exported identifier no non-test code (module, examples or
# perfbench) references, and on an exported struct field no such code
# sets or none reads, unless scripts/deadexports/allow.txt lists it; on
# a stale allowlist entry; and when cmd/decided's closure outgrows its
# pinned budget. Standard library only; needs no network.
go run ./scripts/deadexports

echo "== go test =="
# SHORT=1 also propagates -short so benchmark-shaped tests (the
# benchjson smoke/compare tests) skip on the fast path.
if [ "${SHORT:-}" = "1" ]; then
    go test -short ./...
else
    go test ./...
fi

echo "== perfbench (nested module): vet + test =="
# perfbench is its own module (`./...` above stops at its go.mod) and
# builds against this one, so a renamed or deleted export it uses must
# fail here, not first in a benchmark run. Read-only: nothing under
# perfbench/ is written.
(cd perfbench && go vet ./... && go test ./...)

echo "== bench smoke (-short gated) =="
# SHORT=1 skips the smoke in constrained environments (CI PR runs):
#   SHORT=1 scripts/check.sh
if [ "${SHORT:-}" = "1" ]; then
    echo "SHORT=1: skipping benchmark smoke"
else
    go test -short -run '^$' -bench 'BenchmarkTCPSimEngineSteady|BenchmarkRunAllQuick' -benchtime 10x .
    # Throwaway path: the tracked BENCH_sweep.json is the full paper-scale
    # record (go run ./cmd/benchjson) and must not be clobbered by smoke
    # numbers. -compare doubles as the local bench-regression gate.
    smoke=$(mktemp /tmp/BENCH_smoke.XXXXXX.json)
    go run ./cmd/benchjson -quick -o "$smoke" -compare BENCH_sweep.json
    rm -f "$smoke"
fi

echo "== internal/workload size (informational) =="
# ROADMAP tracks the non-test line count of the cache hierarchy's
# package; printed for the record, never gated.
echo "internal/workload non-test lines: $(cat $(ls internal/workload/*.go | grep -v _test) | wc -l)"

echo "== tracked BENCH_sweep.json unmodified =="
# The smoke run writes only to its throwaway path; fail loudly if any
# step accidentally rewrote the tracked record.
git diff --exit-code BENCH_sweep.json

echo "OK"
