#!/usr/bin/env bash
# loadcheck.sh — the CI service gate: build the real decided binary,
# pre-warm a grid through the real ssslab CLI into a hermetic cache
# directory, then drive the running server and fail unless
#
#   (a) a warm-request phase (120 mixed single-cell decisions over the
#       pre-warmed cells) reports engine-runs=0 on /v1/stats and a p99
#       request latency under a generous bound,
#   (b) M concurrent identical cold requests coalesce into exactly ONE
#       engine run (the memo's single-flight guarantee, end to end),
#   (c) the /v1/portfolio body is byte-identical to the batch
#       streamdecide -json archive for the same portfolio and grid,
#       served warm (X-Cache-Stats reports engine-runs=0),
#   (d) SIGTERM drains cleanly: exit 0 and a final cache-stats line
#       showing the server itself simulated only the one coalesced cell,
#   (e) run just before (d): a /v1/decide cell and a /v1/portfolio grid
#       holding a value no cell can run (concurrency 0), and a cell that
#       spells duration_s 0, each answer 400 naming it, and engine-runs
#       does not move.
#
# Progress lines are appended to $OUT_LOG so CI can upload them (plus
# the server log on failure) as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

CACHE_DIR=$(mktemp -d /tmp/repro-loadcheck-cache.XXXXXX)
export CACHE_DIR
WORK=$(mktemp -d /tmp/repro-loadcheck-work.XXXXXX)
own_log=""
if [ -z "${OUT_LOG:-}" ]; then
    OUT_LOG=$(mktemp /tmp/repro-loadcheck-out.XXXXXX)
    own_log=$OUT_LOG
fi
SERVER_PID=""
cleanup() {
    status=$?
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ] && [ -f "$WORK/server.log" ]; then
        { echo "--- server.log ---"; cat "$WORK/server.log"; } >> "$OUT_LOG"
    fi
    rm -rf "$CACHE_DIR" "$WORK"
    if [ -n "$own_log" ]; then
        if [ "$status" -eq 0 ]; then
            rm -f "$own_log"
        else
            echo "loadcheck: log kept at $own_log" >&2
        fi
    fi
}
trap cleanup EXIT

fail() {
    echo "loadcheck: $1" >&2
    echo "  want: $2" >&2
    echo "  got:  $3" >&2
    exit 1
}

echo "== build binaries =="
go build -o "$WORK/" ./cmd/decided ./cmd/ssslab ./cmd/streamdecide

# Pre-warm 2 conc × 2 RTTs × 2 crosses = 8 cells in a separate batch
# process — the server must serve them warm without ever simulating.
# The flags mirror the service GridSpec defaults exactly (1 s cells,
# 2GB transfers, 8 flows, 25 Gbps), so the cell fingerprints match.
echo "== pre-warm 8 cells via ssslab =="
prewarm=$("$WORK/ssslab" -grid -seconds 1 -size 2GB -concs 2,4 \
    -rtts 8ms,64ms -crosses 0,0.3 -cache-stats | tail -n 1)
echo "prewarm: $prewarm" | tee -a "$OUT_LOG"
want_prewarm="cache-stats: cells=8 memo=0 disk=0 segment=0 engine-runs=8 lock-waits=0 index-load=0s bytes-read=0"
[ "$prewarm" = "$want_prewarm" ] || fail "pre-warm did not execute the whole grid" "$want_prewarm" "$prewarm"

echo "== start decided =="
"$WORK/decided" -listen 127.0.0.1:0 -cache-dir "$CACHE_DIR" -cache-stats \
    > "$WORK/server.log" 2>&1 &
SERVER_PID=$!
BASE=""
for _ in $(seq 1 100); do
    BASE=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$WORK/server.log" | head -n 1)
    [ -n "$BASE" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log" >&2; fail "server died on startup" "address line" "dead process"; }
    sleep 0.1
done
[ -n "$BASE" ] || fail "server printed no address line" "decided: listening on http://…" "$(cat "$WORK/server.log")"
echo "server: $BASE (pid $SERVER_PID)" | tee -a "$OUT_LOG"
curl -fsS "$BASE/healthz" > /dev/null || fail "health check" "200 ok" "unreachable"

# engine_runs as the server reports it: the greppable cache line inside
# the /v1/stats JSON.
stats_engine_runs() {
    curl -fsS "$BASE/v1/stats" | grep -o 'engine-runs=[0-9]*' | head -n 1 | cut -d= -f2
}

# decide_body CONC RTT CROSS — one single-cell decision request over
# the pre-warmed axes vocabulary.
decide_body() {
    printf '{"workload":{"name":"XPCS","unit_size":"2GB","complexity_flop_per_gb":17e12,"local":"5TF","remote":"100TF"},"cell":{"duration_s":1,"concs":"%s","rtts":"%s","crosses":"%s"}}' "$1" "$2" "$3"
}

echo "== warm phase: 120 mixed requests over the 8 pre-warmed cells =="
runs_before=$(stats_engine_runs)
: > "$WORK/times"
for i in $(seq 0 119); do
    conc=$([ $((i % 2)) -eq 0 ] && echo 2 || echo 4)
    rtt=$([ $(((i / 2) % 2)) -eq 0 ] && echo 8ms || echo 64ms)
    cross=$([ $(((i / 4) % 2)) -eq 0 ] && echo 0 || echo 0.3)
    t=$(curl -fsS -o "$WORK/warm.json" -w '%{time_total}' -X POST \
        -H 'Content-Type: application/json' -d "$(decide_body "$conc" "$rtt" "$cross")" \
        "$BASE/v1/decide")
    echo "$t" >> "$WORK/times"
    grep -q '"decision"' "$WORK/warm.json" || fail "warm request $i" "a decision body" "$(cat "$WORK/warm.json")"
done
runs_after=$(stats_engine_runs)
warm_delta=$((runs_after - runs_before))
p99=$(sort -g "$WORK/times" | awk 'NR==119')
echo "warm: engine-runs delta $warm_delta, p99 ${p99}s" | tee -a "$OUT_LOG"
[ "$warm_delta" -eq 0 ] || fail "warm phase simulated" "engine-runs delta 0" "$warm_delta"
awk -v p="$p99" 'BEGIN{exit !(p <= 0.5)}' || fail "warm p99 latency" "<= 0.5s" "${p99}s"

echo "== coalescing phase: 8 concurrent identical cold requests =="
runs_before=$(stats_engine_runs)
cold_body=$(decide_body 2 32ms 0.15) # RTT/cross never pre-warmed
curl_pids=()
for i in $(seq 0 7); do
    curl -fsS -o "$WORK/co_$i.json" -X POST -H 'Content-Type: application/json' \
        -d "$cold_body" "$BASE/v1/decide" &
    curl_pids+=("$!")
done
for pid in "${curl_pids[@]}"; do
    wait "$pid" || fail "concurrent cold request" "exit 0" "curl pid $pid failed"
done
runs_after=$(stats_engine_runs)
cold_delta=$((runs_after - runs_before))
echo "coalesce: engine-runs delta $cold_delta for 8 clients" | tee -a "$OUT_LOG"
[ "$cold_delta" -eq 1 ] || fail "cold requests did not coalesce" "exactly 1 engine run" "$cold_delta"
# Every client must have received the same decision and measurements
# (the cache attribution legitimately differs per request).
decision_fields() {
    grep -E '"(decision|reason|gain|t_local_s|t_pct_s|worst_s|sss|utilization|rate_Bps)"' "$1"
}
decision_fields "$WORK/co_0.json" > "$WORK/co_ref"
for i in $(seq 1 7); do
    decision_fields "$WORK/co_$i.json" | diff "$WORK/co_ref" - > /dev/null \
        || fail "coalesced client $i" "decision identical to client 0" "diverged"
done

echo "== portfolio byte-identity vs batch streamdecide =="
"$WORK/streamdecide" -portfolio examples/portfolio/portfolio.json -grid -gseconds 1 \
    -concs 2,4 -rtts 8ms,64ms -crosses 0,0.3 -json "$WORK/batch.json" > /dev/null
printf '{"name":"portfolio","grid":{"duration_s":1,"concs":"2,4","rtts":"8ms,64ms","crosses":"0,0.3"},"portfolio":%s}' \
    "$(cat examples/portfolio/portfolio.json)" > "$WORK/pf_req.json"
curl -fsS -D "$WORK/pf_headers" -o "$WORK/service.json" -X POST \
    -H 'Content-Type: application/json' --data-binary "@$WORK/pf_req.json" "$BASE/v1/portfolio"
if ! diff "$WORK/batch.json" "$WORK/service.json" >> "$OUT_LOG"; then
    fail "portfolio response" "byte-identical to streamdecide -json" "diff appended to $OUT_LOG"
fi
pf_stats=$(grep -i '^x-cache-stats:' "$WORK/pf_headers" | tr -d '\r')
echo "portfolio: $pf_stats" | tee -a "$OUT_LOG"
echo "$pf_stats" | grep -q 'engine-runs=0' || fail "portfolio request simulated" "engine-runs=0" "$pf_stats"

echo "== bad cells: 400 before any engine run =="
runs_before=$(stats_engine_runs)
bad_status() { # PATH BODY -> the HTTP status; the body lands in $WORK/bad.json
    curl -sS -o "$WORK/bad.json" -w '%{http_code}' -X POST \
        -H 'Content-Type: application/json' -d "$2" "$BASE$1"
}
code=$(bad_status /v1/decide "$(decide_body 0 8ms 0)")
grep -q 'concurrency must be' "$WORK/bad.json" && [ "$code" = 400 ] \
    || fail "bad /v1/decide cell" "400 naming the concurrency" "$code $(cat "$WORK/bad.json")"
code=$(bad_status /v1/portfolio "$(printf '{"grid":{"duration_s":1,"concs":"2,0"},"portfolio":%s}' \
    "$(cat examples/portfolio/portfolio.json)")")
grep -q 'concurrency must be' "$WORK/bad.json" && [ "$code" = 400 ] \
    || fail "bad /v1/portfolio grid" "400 naming the concurrency" "$code $(cat "$WORK/bad.json")"
code=$(bad_status /v1/decide '{"workload":{"name":"XPCS","unit_size":"2GB","complexity_flop_per_gb":17e12,"local":"5TF","remote":"100TF"},"cell":{"duration_s":0,"concs":"2","rtts":"8ms","crosses":"0"}}')
grep -q 'duration_s 0' "$WORK/bad.json" && [ "$code" = 400 ] \
    || fail "zero-duration /v1/decide cell" "400 naming duration_s" "$code $(cat "$WORK/bad.json")"
runs_after=$(stats_engine_runs)
echo "bad cells: 400, 400 and 400, engine-runs delta $((runs_after - runs_before))" | tee -a "$OUT_LOG"
[ "$runs_after" -eq "$runs_before" ] || fail "bad cells simulated" "engine-runs delta 0" "$((runs_after - runs_before))"

echo "== graceful shutdown =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exit status" "0 after SIGTERM" "$?"
SERVER_PID=""
final=$(grep '^cache-stats: ' "$WORK/server.log" | tail -n 1)
echo "final: $final" | tee -a "$OUT_LOG"
final_runs=$(echo "$final" | grep -o 'engine-runs=[0-9]*' | cut -d= -f2)
[ "$final_runs" = "1" ] || fail "server lifetime engine runs" "1 (the coalesced cold cell)" "${final_runs:-none}"
echo "OK"
