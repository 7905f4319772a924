#!/usr/bin/env bash
# segcheck.sh — the CI segment-store gate: run a ≥2048-cell scenario
# grid cold through the real ssslab CLI, compact the cache into the
# indexed segment file (ssslab -compact-cache), then re-run the same
# grid warm in a fresh process and fail unless (a) -cache-stats reports
# zero engine runs with every cell served from the segment, and (b) the
# warm report is byte-identical to the cold one. This is the segment
# store's headline guarantee at the scale the per-cell-file layout
# could not serve (PERFORMANCE.md "The segment store"); the unit tests
# assert it in-process, this script asserts it end to end across real
# CLI invocations.
#
# Cache-stats lines (and the compaction summary) are appended to
# $OUT_LOG so CI can upload them as an artifact when the gate fails.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hermetic cell store: the cold run below must be the only possible
# source of warm cells. The grid reports land inside it, and the trap
# cleans it on every exit path. A self-created OUT_LOG (no $OUT_LOG
# from the environment — CI sets one and uploads it as an artifact on
# failure) is removed on success but KEPT on failure, since the
# byte-identity diff is written only there.
CACHE_DIR=$(mktemp -d /tmp/repro-segcheck-cache.XXXXXX)
export CACHE_DIR
own_log=""
if [ -z "${OUT_LOG:-}" ]; then
    OUT_LOG=$(mktemp /tmp/repro-segcheck-out.XXXXXX)
    own_log=$OUT_LOG
fi
cold_report="$CACHE_DIR/report-cold.txt"
warm_report="$CACHE_DIR/report-warm.txt"
cleanup() {
    status=$?
    rm -rf "$CACHE_DIR"
    if [ -n "$own_log" ]; then
        if [ "$status" -eq 0 ]; then
            rm -f "$own_log"
        else
            echo "segcheck: cache-stats log kept at $own_log" >&2
        fi
    fi
}
trap cleanup EXIT

# 8 conc × 4 P × 2 sizes × 4 RTTs × 2 buffers × 2 CCs × 2 crosses
# = 2048 cells.
grid() {
    go run ./cmd/ssslab -grid -seconds 1 \
        -concs 1,2,3,4,5,6,7,8 -pflows 2,4,8,16 -sizes 0.25GB,0.5GB \
        -rtts 8ms,16ms,32ms,64ms -buffers auto,2MB -ccs reno,cubic \
        -crosses 0,0.3 -cache-stats
}

fail() {
    echo "segcheck: $1" >&2
    echo "  want: $2" >&2
    echo "  got:  $3" >&2
    exit 1
}

echo "== cold 2048-cell grid =="
grid > "$cold_report"
cold=$(tail -n 1 "$cold_report")
echo "cold: $cold" | tee -a "$OUT_LOG"
# A cold run against an empty directory never loads a segment index, so
# index-load and bytes-read are exactly zero and the line matches whole.
want_cold="cache-stats: cells=2048 memo=0 disk=0 segment=0 engine-runs=2048 lock-waits=0 index-load=0s bytes-read=0"
[ "$cold" = "$want_cold" ] || fail "cold run did not execute the whole grid" "$want_cold" "$cold"

echo "== compact =="
go run ./cmd/ssslab -compact-cache | tee -a "$OUT_LOG"
[ -f "$CACHE_DIR/cells.seg" ] || fail "compaction left no segment file" "$CACHE_DIR/cells.seg" "missing"
[ -f "$CACHE_DIR/cells.idx" ] || fail "compaction left no index sidecar" "$CACHE_DIR/cells.idx" "missing"

echo "== warm re-run from the compacted segment (fresh process) =="
grid > "$warm_report"
warm=$(tail -n 1 "$warm_report")
echo "warm: $warm" | tee -a "$OUT_LOG"
# The warm run's index-load duration and bytes-read tally are real I/O
# measurements (nonzero, machine-dependent): deterministic counters
# match exactly, those two by pattern.
want_warm='^cache-stats: cells=2048 memo=0 disk=0 segment=2048 engine-runs=0 lock-waits=0 index-load=[^ ]+ bytes-read=[1-9][0-9]*$'
printf '%s\n' "$warm" | grep -Eq "$want_warm" \
    || fail "warm run was not served entirely from the segment" "$want_warm" "$warm"

echo "== warm report byte-identical to cold =="
# Everything but the cache-stats line (which legitimately differs) must
# match bit for bit: loaded records stand in for recomputes exactly.
# sed '$d' (drop last line) rather than GNU-only `head -n -1`.
if ! diff <(sed '$d' "$cold_report") <(sed '$d' "$warm_report") >> "$OUT_LOG"; then
    echo "segcheck: warm grid report differs from cold report (diff in $OUT_LOG)" >&2
    exit 1
fi

# ---- multi-hop round: the same cold → compact → warm byte-identity
# guarantee for a 2-hop (edge→WAN) grid, whose cells are keyed by their
# composed coordinates. 2 ecaps × 2 wrtts × 2 concs × 2 P = 16 cells — small,
# because this round gates hop-axis cache identity, not scale.
hop_cold="$CACHE_DIR/report-hop-cold.txt"
hop_warm="$CACHE_DIR/report-hop-warm.txt"
hopgrid() {
    go run ./cmd/ssslab -grid -seconds 1 \
        -hops edge:10Gbps:2ms,wan:100Gbps:30ms:8MB:0.3 \
        -edge-caps 10Gbps,40Gbps -wan-rtts 20ms,60ms \
        -concs 2,4 -pflows 4,8 -cache-stats
}

echo "== cold 2-hop grid =="
hopgrid > "$hop_cold"
hop_cold_line=$(tail -n 1 "$hop_cold")
echo "hop cold: $hop_cold_line" | tee -a "$OUT_LOG"
# The flat round's compacted segment is still in CACHE_DIR: the hop
# cells must all miss it (their composed capacities and RTTs are not the
# flat grid's) and simulate.
want_hop_cold='^cache-stats: cells=16 memo=0 disk=0 segment=0 engine-runs=16 lock-waits=0 index-load=[^ ]+ bytes-read=[0-9]+$'
printf '%s\n' "$hop_cold_line" | grep -Eq "$want_hop_cold" \
    || fail "cold 2-hop run did not simulate all 16 cells" "$want_hop_cold" "$hop_cold_line"

echo "== compact (hop cells into the segment) =="
go run ./cmd/ssslab -compact-cache | tee -a "$OUT_LOG"

echo "== warm 2-hop re-run from the compacted segment (fresh process) =="
hopgrid > "$hop_warm"
hop_warm_line=$(tail -n 1 "$hop_warm")
echo "hop warm: $hop_warm_line" | tee -a "$OUT_LOG"
want_hop_warm='^cache-stats: cells=16 memo=0 disk=0 segment=16 engine-runs=0 lock-waits=0 index-load=[^ ]+ bytes-read=[1-9][0-9]*$'
printf '%s\n' "$hop_warm_line" | grep -Eq "$want_hop_warm" \
    || fail "warm 2-hop run was not served entirely from the segment" "$want_hop_warm" "$hop_warm_line"

echo "== warm 2-hop report byte-identical to cold =="
if ! diff <(sed '$d' "$hop_cold") <(sed '$d' "$hop_warm") >> "$OUT_LOG"; then
    echo "segcheck: warm 2-hop report differs from cold report (diff in $OUT_LOG)" >&2
    exit 1
fi
echo "OK"
