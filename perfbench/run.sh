#!/usr/bin/env bash
# Builds the benchmark harness and cmd/decided from source, then runs one
# workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload decide_hot --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, both binaries, and the cache
# directories the workloads create. HOME points there too, so neither the
# toolchain nor the harness writes to the user's home directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"

export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
# The default cache directory then resolves under HOME too.
unset CACHE_DIR

(
	cd "$here"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/decided" repro/cmd/decided
) >&2

exec "$build/bin/perfbench" -decided "$build/bin/decided" -work "$build/work" "$@"
