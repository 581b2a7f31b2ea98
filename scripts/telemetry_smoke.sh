#!/usr/bin/env bash
# Smoke test of the live-telemetry subsystem (docs/OBSERVABILITY.md):
#
#  A. run a fig2_dse sweep with --telemetry-port 0, scrape /metrics
#     while it runs, lint the exposition (requiring the live
#     frame-time histogram, the per-kernel time family and the DSE
#     pool gauges), and check
#     /healthz answers 200 ok;
#  B. SIGTERM a slambench_cli run mid-flight and validate the crash
#     dump JSON the fatal-signal handler writes;
#  C. run the same CLI workload with and without telemetry, three of
#     each interleaved, and gate the frame-time overhead of the
#     least-disturbed run of each side via bench_compare.py
#     (TELEMETRY_SMOKE_OVERHEAD_PCT, default 25% — generous because
#     CI frame times are noisy; the flag's own default is 1%).
#
# Usage: telemetry_smoke.sh <fig2_dse> <slambench_cli> <scripts-dir>
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 <fig2_dse> <slambench_cli> <scripts-dir>" >&2
    exit 2
fi
fig2=$(readlink -f "$1")
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
    echo "telemetry_smoke: $*" >&2
    exit 1
}

have_python=0
command -v python3 >/dev/null 2>&1 && have_python=1

# GET http://127.0.0.1:$1$2 and print the response body to stdout.
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
        # bash fallback: speak HTTP/1.0 over /dev/tcp and strip the
        # response headers.
        exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
        printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
        sed '1,/^\r\{0,1\}$/d' <&3
        exec 3<&- 3>&-
    fi
}

# Poll $2 for the "telemetry: listening" line of process $1 and echo
# the bound port; dies when the process exits before announcing it.
wait_for_port() {
    local pid="$1" log="$2" port=""
    for _ in $(seq 1 200); do
        port=$(sed -n \
            's#.*telemetry: listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
            "$log" | head -n 1)
        [ -n "$port" ] && { echo "$port"; return 0; }
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    return 1
}

# --- Phase A: live scrape of a running DSE sweep ------------------

"$fig2" --quick --frames 25 --random 12 --warmup 6 --dse-threads 2 \
    --telemetry-port 0 --metrics-json dse.json \
    > dse.log 2>&1 &
dse_pid=$!
pids="$dse_pid"

port=$(wait_for_port "$dse_pid" dse.log) || {
    cat dse.log >&2
    fail "fig2_dse never announced its telemetry port"
}

# Retry until the sweep has produced live frame metrics and pool
# gauges and /healthz answers ok, all from the running process (the
# sweep is finite, so both scrapes sit in one loop); each evaluation
# runs whole pipeline frames, so this converges within the first
# warmup batch.
scraped=0
for _ in $(seq 1 300); do
    kill -0 "$dse_pid" 2>/dev/null || break
    if scrape "$port" /metrics > metrics.txt 2>/dev/null \
            && grep -q '^live_frame_wall_seconds_bucket' metrics.txt \
            && grep -q '^pipeline_kernel_seconds_bucket' metrics.txt \
            && grep -q '^dse_pool_occupancy ' metrics.txt \
            && scrape "$port" /healthz > healthz.txt 2>/dev/null \
            && grep -q '^ok$' healthz.txt; then
        scraped=1
        break
    fi
    sleep 0.1
done
[ "$scraped" -eq 1 ] || {
    cat dse.log >&2
    cat healthz.txt >&2 2>/dev/null || true
    fail "never scraped live metrics and an ok /healthz from the" \
         "running sweep"
}

if [ "$have_python" -eq 1 ]; then
    python3 "$scripts/check_prometheus_exposition.py" metrics.txt \
        --require live_frame_wall_seconds:histogram \
        --require live_frames_total:counter \
        --require pipeline_kernel_seconds:histogram \
        --require dse_pool_occupancy:gauge \
        --require dse_pool_active_evals:gauge \
        --require process_peak_rss_bytes:gauge \
        || fail "exposition lint failed"
else
    grep -q '^# TYPE live_frame_wall_seconds histogram' metrics.txt \
        || fail "missing live frame-time histogram (grep fallback)"
fi

wait "$dse_pid" || fail "fig2_dse exited non-zero"
pids=""
echo "telemetry_smoke: phase A ok (port $port)"

# --- Phase B: crash dump on SIGTERM -------------------------------

# Enough frames that the run is still going when the signal lands
# (the scrape loop below guarantees events have been recorded
# first), but few enough that the up-front synthetic sequence
# generation stays in the loop's time budget.
"$cli" --frames 150 --telemetry-port 0 --crash-dump crash.json \
    > cli.log 2>&1 &
cli_pid=$!
pids="$cli_pid"

port=$(wait_for_port "$cli_pid" cli.log) || {
    cat cli.log >&2
    fail "slambench_cli never announced its telemetry port"
}
# Long deadline: the CLI generates its synthetic sequence up front
# (~0.1 s/frame with rows rendered on four cores, ~0.25 s/frame on
# one) before the first pipeline frame can tick.
recorded=0
for _ in $(seq 1 900); do
    if scrape "$port" /metrics 2>/dev/null \
            | grep -q '^live_frames_total [1-9]'; then
        recorded=1
        break
    fi
    kill -0 "$cli_pid" 2>/dev/null || break
    sleep 0.2
done
[ "$recorded" -eq 1 ] || {
    cat cli.log >&2
    fail "CLI run never recorded a live frame"
}

kill -TERM "$cli_pid"
status=0
wait "$cli_pid" || status=$?
pids=""
[ "$status" -eq $((128 + 15)) ] \
    || fail "CLI exit status $status, want SIGTERM (143)"

[ -s crash.json ] || fail "handler wrote no crash.json"
if [ "$have_python" -eq 1 ]; then
    python3 - <<'EOF' || fail "crash dump validation failed"
import json

dump = json.load(open("crash.json"))
assert dump["schema"] == "slambench-crash-dump", dump["schema"]
assert dump["schema_version"] == 1
assert dump["signal"] == 15, dump["signal"]
assert dump["generator"] == "slambench_cli", dump["generator"]
events = dump["events"]
assert 1 <= len(events) <= 1024, len(events)
assert dump["events_recorded"] >= len(events)
assert any(e["kind"] == "frame" for e in events)
for event in events:
    assert set(event) == {"ns", "kind", "frame", "a", "b",
                          "detail"}, sorted(event)
assert "counters" in dump and "gauges" in dump \
    and "histograms" in dump
hist = dump["histograms"].get("live.frame_wall_seconds")
assert hist and hist["count"] >= 1, hist
print("telemetry_smoke: crash dump ok (%d events)" % len(events))
EOF
else
    grep -q '"schema": "slambench-crash-dump"' crash.json \
        || fail "crash.json missing schema marker (grep fallback)"
fi
echo "telemetry_smoke: phase B ok"

# --- Phase C: telemetry overhead gate -----------------------------

# On a loaded host the p50 of one run swings by more than the gate
# from run to run, so each side runs three times, interleaved so that
# both see the same load drift, and the gate compares each side's
# least-disturbed run.
for i in 1 2 3; do
    "$cli" --frames 40 --metrics-json "base$i.json" > base.log 2>&1 \
        || { cat base.log >&2; fail "baseline CLI run $i failed"; }
    "$cli" --frames 40 --metrics-json "with_telemetry$i.json" \
        --telemetry-port 0 > with_telemetry.log 2>&1 \
        || { cat with_telemetry.log >&2;
             fail "telemetry CLI run $i failed"; }
done

if [ "$have_python" -eq 1 ]; then
    fastest() {
        python3 -c '
import json, sys
print(min(sys.argv[1:], key=lambda path: json.load(open(path))
          ["summary"]["frame_wall_seconds_p50"]))
' "$@"
    }
    # Wide standard gates: independent runs carry scheduling noise,
    # so only the dedicated overhead gate decides here.
    python3 "$scripts/bench_compare.py" \
        "$(fastest base1.json base2.json base3.json)" \
        "$(fastest with_telemetry1.json with_telemetry2.json \
                   with_telemetry3.json)" \
        --max-frame-time-regress 2.0 --max-ate-regress 2.0 \
        --max-rss-regress 2.0 \
        --telemetry-overhead-pct \
        "${TELEMETRY_SMOKE_OVERHEAD_PCT:-25}" \
        || fail "telemetry overhead gate failed"
else
    for i in 1 2 3; do
        [ -s "with_telemetry$i.json" ] \
            || fail "telemetry run $i wrote no report (grep fallback)"
    done
fi
echo "telemetry_smoke: phase C ok"

echo "telemetry_smoke: ok"
