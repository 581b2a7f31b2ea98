#!/usr/bin/env bash
# Smoke test of per-frame request tracing (docs/OBSERVABILITY.md,
# "Request tracing"):
#
#  A. soak slambench_serve with tracing armed at sample rate 0 and an
#     impossible frame-p99 SLO so that EVERY frame breaches: tail
#     retention must keep each trace anyway. Scrape /metrics until a
#     tenant latency histogram carries an OpenMetrics exemplar
#     (` # {trace_id="..."} value`), lint the exposition with
#     --require-exemplar, then follow the exemplar's trace id to
#     /tracez?trace_id=... and require a complete span tree (root
#     "frame" span plus queue_wait and kernel children). Also
#     exercise the tenant/min_ms/limit query filters and the 404
#     path for unknown ids. The soak runs until SIGTERM
#     (--serve-ticks 0) and is drained only after the last query, so
#     no query races the server's exit.
#  B. overhead gate: two slambench_cli runs, base vs tracing at the
#     default 1% sample rate, compared via bench_compare.py's
#     --telemetry-overhead-pct gate. Tracing must stay cheap enough
#     to leave on in production.
#
# Usage: trace_query_smoke.sh <slambench_serve> <slambench_cli> \
#            <scripts-dir>
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 <slambench_serve> <slambench_cli> <scripts-dir>" \
        >&2
    exit 2
fi
serve=$(readlink -f "$1")
cli=$(readlink -f "$2")
scripts=$(readlink -f "$3")

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
    echo "trace_query_smoke: $*" >&2
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

tenants=4

# --- Phase A: tail retention + exemplar -> /tracez round trip -----

# Sample rate 0 means head sampling keeps NOTHING; the 0.0001 ms p99
# SLO means every frame breaches it, so anything retrievable below
# proves the tail-based always-keep path, not sampling luck.
"$serve" --serve-tenants "$tenants" --serve-ticks 0 \
    --trace-requests --trace-sample-rate 0 \
    --slo-frame-p99-ms 0.0001 \
    --telemetry-port 0 --metrics-json trace_soak.json \
    > soak.log 2>&1 &
soak_pid=$!
pids="$soak_pid"

port=$(wait_for_port "$soak_pid" soak.log) || {
    cat soak.log >&2
    fail "slambench_serve never announced its telemetry port"
}

# Poll /metrics until a tenant latency bucket carries an exemplar.
trace_id=""
for _ in $(seq 1 600); do
    if scrape "$port" /metrics > metrics.txt 2>/dev/null; then
        trace_id=$(sed -n \
            's@^serve_tenant_frame_seconds_bucket.* # {trace_id="\([0-9a-f]\{16\}\)"}.*@\1@p' \
            metrics.txt | head -n 1)
        [ -n "$trace_id" ] && break
    fi
    kill -0 "$soak_pid" 2>/dev/null || break
    sleep 0.1
done
[ -n "$trace_id" ] || {
    cat soak.log >&2
    fail "no exemplar ever appeared on a tenant latency histogram"
}
echo "trace_query_smoke: exemplar trace_id=$trace_id"

if [ "$have_python" -eq 1 ]; then
    python3 "$scripts/check_prometheus_exposition.py" metrics.txt \
        --require serve_tenant_frame_seconds:histogram \
        --require-exemplar serve_tenant_frame_seconds \
        || fail "exemplar-aware exposition lint failed"
fi

# Follow the exemplar to its complete span tree.
scrape "$port" "/tracez?trace_id=$trace_id" > by_id.json \
    || fail "/tracez?trace_id=$trace_id scrape failed"
grep -q '"schema": "slambench-tracez-query"' by_id.json \
    || { cat by_id.json >&2; fail "query response missing schema"; }
grep -q '"matches": 1' by_id.json \
    || { cat by_id.json >&2; fail "exemplar trace id not retained"; }
grep -q "\"trace_id\": \"$trace_id\"" by_id.json \
    || { cat by_id.json >&2; fail "response echoes wrong trace id"; }
grep -q '"slo_breach": true' by_id.json \
    || { cat by_id.json >&2; fail "retained trace lost its SLO flag"; }
grep -q '"name": "frame"' by_id.json \
    || { cat by_id.json >&2; fail "span tree has no root frame span"; }
grep -q '"name": "queue_wait"' by_id.json \
    || { cat by_id.json >&2; fail "span tree has no queue_wait span"; }
grep -q '"category": "kernel"' by_id.json \
    || { cat by_id.json >&2; fail "span tree has no kernel child"; }
grep -q '"children": \[' by_id.json \
    || { cat by_id.json >&2; fail "span tree is flat"; }

# Filtered index queries: by tenant, by floor, bounded by limit.
scrape "$port" "/tracez?tenant=t00&limit=2" > by_tenant.json \
    || fail "/tracez?tenant=t00 scrape failed"
grep -q '"schema": "slambench-tracez-query"' by_tenant.json \
    || fail "tenant query missing schema"
grep -q '"tenant": "t00"' by_tenant.json \
    || { cat by_tenant.json >&2; fail "tenant filter returned none"; }
grep -q '"tenant": "t01"' by_tenant.json \
    && { cat by_tenant.json >&2; fail "tenant filter leaked t01"; }
scrape "$port" "/tracez?min_ms=999999" > by_floor.json \
    || fail "/tracez?min_ms scrape failed"
grep -q '"matches": 0' by_floor.json \
    || { cat by_floor.json >&2; fail "absurd min_ms still matched"; }

# Unknown trace ids answer 404 with a well-formed empty result.
if [ "$have_python" -eq 1 ]; then
    if scrape "$port" "/tracez?trace_id=ffffffffffffffff" \
            > missing.json 2>/dev/null; then
        fail "unknown trace id did not 404"
    fi
    grep -q '"matches": 0' missing.json \
        || { cat missing.json >&2; fail "404 body not empty result"; }
fi

# The plain /tracez index must advertise the tracing state.
scrape "$port" /tracez > index.json || fail "/tracez scrape failed"
grep -q '"request_tracing"' index.json \
    || { cat index.json >&2; fail "index missing request_tracing"; }

kill -TERM "$soak_pid"
status=0
wait "$soak_pid" || status=$?
pids=""
[ "$status" -eq 0 ] || {
    cat soak.log >&2
    fail "traced soak drain exit status $status, want 0"
}
grep -q 'serve: drained after' soak.log \
    || { cat soak.log >&2; fail "traced soak did not drain"; }
echo "trace_query_smoke: phase A ok (port $port)"

# --- Phase B: tracing overhead gate at default sample rate --------

"$cli" --frames 40 --metrics-json base.json > base.log 2>&1 \
    || { cat base.log >&2; fail "baseline CLI run failed"; }
"$cli" --frames 40 --metrics-json traced.json \
    --trace-requests > traced.log 2>&1 \
    || { cat traced.log >&2; fail "traced CLI run failed"; }

if [ "$have_python" -eq 1 ]; then
    # Wide standard gates: two independent runs carry scheduling
    # noise, so only the dedicated overhead gate decides here.
    python3 "$scripts/bench_compare.py" base.json traced.json \
        --max-frame-time-regress 2.0 --max-ate-regress 2.0 \
        --max-rss-regress 2.0 \
        --telemetry-overhead-pct \
        "${TRACE_SMOKE_OVERHEAD_PCT:-25}" \
        || fail "request-tracing overhead gate failed"
else
    [ -s traced.json ] \
        || fail "traced run wrote no report (grep fallback)"
fi
echo "trace_query_smoke: phase B ok"

echo "trace_query_smoke: ok"
