#!/usr/bin/env bash
# Smoke test of the multi-session SLAM service (docs/SERVING.md):
#
#  A. soak slambench_serve with 8 tenants and a live /metrics
#     endpoint; scrape mid-run, require the per-tenant labeled series
#     for every tenant, lint the exposition (label-aware), and check
#     /healthz answers 200 ok;
#  B. stall-injection leg: flood the scheduler pool mid-run with
#     blockers long enough to trip the pool-queue-stall SLO, and
#     assert from the run report that load shedding ENGAGED (frames
#     were shed) and CLEARED (the run kept processing afterwards),
#     with the breach latched on /healthz semantics via slo metrics;
#  C. SIGTERM drain leg: signal a run-until-SIGTERM server mid-soak
#     and require a clean exit 0 with a complete run report, plus a
#     serve-mode aggregate frame-p99 self-comparison gate via
#     bench_compare.py.
#
# Usage: serve_smoke.sh <slambench_serve> <scripts-dir>
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <slambench_serve> <scripts-dir>" >&2
    exit 2
fi
serve=$(readlink -f "$1")
scripts=$(readlink -f "$2")

workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"

fail() {
    echo "serve_smoke: $*" >&2
    exit 1
}

have_python=0
command -v python3 >/dev/null 2>&1 && have_python=1

scrape() {
    local port="$1" path="$2"
    if [ "$have_python" -eq 1 ]; then
        python3 -c '
import sys, urllib.request
url = "http://127.0.0.1:%s%s" % (sys.argv[1], sys.argv[2])
try:
    with urllib.request.urlopen(url, timeout=5) as response:
        sys.stdout.write(response.read().decode())
except urllib.error.HTTPError as exc:
    sys.stdout.write(exc.read().decode())
    sys.exit(3)
' "$port" "$path"
    else
        exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
        printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
        sed '1,/^\r\{0,1\}$/d' <&3
        exec 3<&- 3>&-
    fi
}

wait_for_port() {
    local pid="$1" log="$2" port=""
    for _ in $(seq 1 600); do
        port=$(sed -n \
            's#.*telemetry: listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
            "$log" | head -n 1)
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    return 1
}

tenants=8

# --- Phase A: multi-tenant soak with per-tenant labels ------------

# The soak runs until SIGTERM (--serve-ticks 0) and is drained after
# the last scrape, so no scrape races the server's exit.
"$serve" --serve-tenants "$tenants" --serve-ticks 0 \
    --telemetry-port 0 --metrics-json soak.json \
    > soak.log 2>&1 &
soak_pid=$!
pids="$soak_pid"

port=$(wait_for_port "$soak_pid" soak.log) || {
    cat soak.log >&2
    fail "slambench_serve never announced its telemetry port"
}

# Wait for every tenant to have processed at least one frame, so the
# scrape proves live per-tenant attribution, not just registration.
scraped=0
for _ in $(seq 1 600); do
    if scrape "$port" /metrics > metrics.txt 2>/dev/null; then
        live=$(grep -c \
            '^serve_tenant_frames_total{tenant="t[0-9]*"} [1-9]' \
            metrics.txt || true)
        if [ "$live" -ge "$tenants" ]; then
            scraped=1
            break
        fi
    fi
    kill -0 "$soak_pid" 2>/dev/null || break
    sleep 0.1
done
[ "$scraped" -eq 1 ] || {
    cat soak.log >&2
    fail "never saw all $tenants tenants live on /metrics"
}

for i in $(seq 0 $((tenants - 1))); do
    id=$(printf 't%02d' "$i")
    grep -q "^serve_tenant_frames_total{tenant=\"$id\"} [1-9]" \
        metrics.txt \
        || fail "tenant $id missing from /metrics"
    grep -q \
        "^serve_tenant_frame_seconds_bucket{tenant=\"$id\",le=" \
        metrics.txt \
        || fail "tenant $id has no labeled latency histogram"
done
grep -q '^serve_tenants 8$' metrics.txt \
    || fail "serve_tenants gauge wrong"
grep -q '^serve_frames_total [1-9]' metrics.txt \
    || fail "aggregate serve_frames_total missing"

scrape "$port" /healthz > healthz.txt \
    || fail "/healthz scrape failed"
grep -q '^ok$' healthz.txt || {
    cat healthz.txt >&2
    fail "/healthz of a healthy soak is not ok"
}

if [ "$have_python" -eq 1 ]; then
    python3 "$scripts/check_prometheus_exposition.py" metrics.txt \
        --require serve_tenant_frames_total:counter \
        --require serve_tenant_frame_seconds:histogram \
        --require serve_frames_total:counter \
        --require serve_frame_seconds:histogram \
        --require serve_tenants:gauge \
        --require serve_shedding:gauge \
        || fail "labeled exposition lint failed"
fi

kill -TERM "$soak_pid"
status=0
wait "$soak_pid" || status=$?
pids=""
[ "$status" -eq 0 ] || {
    cat soak.log >&2
    fail "soak drain exit status $status, want 0"
}
if [ "$have_python" -eq 1 ]; then
    python3 "$scripts/check_metrics_schema.py" soak.json \
        --serve --tenants "$tenants" \
        || fail "serve run-report schema validation failed"
fi
echo "serve_smoke: phase A ok (port $port, $tenants tenants)"

# --- Phase B: stall injection -> shedding engages AND clears ------

"$serve" --serve-tenants "$tenants" --serve-ticks 40 \
    --serve-stall-tick 6 --serve-stall-ms 400 \
    --slo-queue-stall-ms 100 \
    --serve-queue-hi 1000 --serve-queue-lo 100 \
    --serve-clear-ticks 3 \
    --metrics-json shed.json > shed.log 2>&1 \
    || { cat shed.log >&2; fail "stall-injection run failed"; }

grep -q 'shedding ENGAGED' shed.log \
    || { cat shed.log >&2; fail "shedding never engaged"; }
grep -q 'shedding cleared' shed.log \
    || { cat shed.log >&2; fail "shedding never cleared"; }
grep -q 'slo: breach slo=pool_queue_stall' shed.log \
    || { cat shed.log >&2; fail "queue-stall SLO never latched"; }

if [ "$have_python" -eq 1 ]; then
    python3 - <<EOF || fail "shedding report validation failed"
import json

report = json.load(open("shed.json"))
summary = report["summary"]
assert summary["serve_tenants"] == $tenants, summary
assert summary["serve_shed_engaged"] >= 1, summary
assert summary["serve_shed_cleared"] >= 1, summary
assert summary["serve_frames_shed"] >= 1, summary
# The run recovered: it processed far more frames than it shed.
assert summary["serve_frames_processed"] > \
    summary["serve_frames_shed"], summary
# The stall is latched in the slo metrics for post-incident scrapes.
counters = report["counters"]
assert counters.get("slo.breaches", 0) >= 1, counters
print("serve_smoke: shed %d frames over %d engagements" %
      (summary["serve_frames_shed"], summary["serve_shed_engaged"]))
EOF
fi
echo "serve_smoke: phase B ok"

# --- Phase C: graceful drain on SIGTERM + p99 gate ----------------

"$serve" --serve-tenants "$tenants" --serve-ticks 0 \
    --telemetry-port 0 --metrics-json drain.json \
    > drain.log 2>&1 &
drain_pid=$!
pids="$drain_pid"

port=$(wait_for_port "$drain_pid" drain.log) || {
    cat drain.log >&2
    fail "drain-leg server never announced its telemetry port"
}
served=0
for _ in $(seq 1 600); do
    if scrape "$port" /metrics 2>/dev/null \
            | grep -q '^serve_frames_total [1-9]'; then
        served=1
        break
    fi
    kill -0 "$drain_pid" 2>/dev/null || break
    sleep 0.1
done
[ "$served" -eq 1 ] || {
    cat drain.log >&2
    fail "drain-leg server never served a frame"
}

kill -TERM "$drain_pid"
status=0
wait "$drain_pid" || status=$?
pids=""
# Graceful drain: TERM is a routine shutdown request for a service,
# so the process must finish the in-flight tick, write its report,
# and exit 0 — NOT die with 143 like the bench binaries.
[ "$status" -eq 0 ] || {
    cat drain.log >&2
    fail "drain exit status $status, want 0"
}
grep -q 'serve: drained after' drain.log \
    || { cat drain.log >&2; fail "no drain log line"; }
[ -s drain.json ] || fail "drained run wrote no report"

if [ "$have_python" -eq 1 ]; then
    python3 "$scripts/check_metrics_schema.py" drain.json \
        --serve --tenants "$tenants" \
        || fail "drained run-report schema validation failed"
    # Serve-mode p99 gate: the soak and the drain leg ran the same
    # tenant mix, so their aggregate frame p99s must be within the
    # (generous, CI-noise-tolerant) serve regression budget.
    python3 "$scripts/bench_compare.py" soak.json drain.json \
        --max-frame-time-regress 10.0 --max-ate-regress 10.0 \
        --max-rss-regress 10.0 \
        --max-serve-p99-regress "${SERVE_SMOKE_P99_REGRESS:-3.0}" \
        || fail "serve p99 gate failed"
fi
echo "serve_smoke: phase C ok"

echo "serve_smoke: ok"
