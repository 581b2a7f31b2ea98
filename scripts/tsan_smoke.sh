#!/usr/bin/env bash
# Race gate for the concurrency layer: re-run the thread-pool, metrics
# -registry, parallel-DSE, pooled-kernel-parity, sparse-volume,
# telemetry, span-model (timeline, request-trace propagation), and
# row-parallel input synthesis test groups under
# ThreadSanitizer. Only registered by
# CMake when the tree was configured with SLAMBENCH_SANITIZE=thread,
# so the binaries passed in are already TSan-instrumented; any
# reported race aborts the test.
#
# Usage: tsan_smoke.sh <support_test> <metrics_test> \
#            <hypermapper_test> <kfusion_parity_test> \
#            <kfusion_sparse_test> <telemetry_test> <trace_test> \
#            <dataset_test>
set -eu

if [ $# -ne 8 ]; then
    echo "usage: $0 <support_test> <metrics_test>" \
         "<hypermapper_test> <kfusion_parity_test>" \
         "<kfusion_sparse_test> <telemetry_test> <trace_test>" \
         "<dataset_test>" >&2
    exit 2
fi
support_test=$(readlink -f "$1")
metrics_test=$(readlink -f "$2")
hypermapper_test=$(readlink -f "$3")
parity_test=$(readlink -f "$4")
sparse_test=$(readlink -f "$5")
telemetry_test=$(readlink -f "$6")
trace_test=$(readlink -f "$7")
dataset_test=$(readlink -f "$8")

# halt_on_error: the first race fails the run instead of just logging.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

# A filter that matches nothing passes in gtest, so a leg must also
# report at least one test run.
run() {
    local bin="$1" filter="$2" out
    echo "tsan_smoke: $(basename "$bin") --gtest_filter=$filter"
    out=$("$bin" --gtest_filter="$filter" --gtest_brief=1 2>&1) || {
        echo "$out"
        echo "tsan_smoke: FAILED under TSan: $(basename "$bin") ($filter)" >&2
        exit 1
    }
    echo "$out"
    if echo "$out" | grep -q '^\[==========\] 0 tests'; then
        echo "tsan_smoke: no test matches $filter in $(basename "$bin")" >&2
        exit 1
    fi
}

run "$support_test" 'ThreadPool.*'
run "$metrics_test" 'MetricsRegistry.*'
run "$hypermapper_test" '*ParallelMatchesSerial*'
run "$parity_test" '*Pooled*'
# Pooled block allocation and integration against the hashed pool.
run "$sparse_test" '*Pooled*'
# The seqlock ring, the exposition server against concurrent metric
# writers, and the watchdog; the fork-based CrashDump suite is
# excluded (fork is not meaningful under TSan's runtime).
run "$telemetry_test" 'FlightRecorder.*:TelemetryServer.*:SloWatchdog.*:LiveTelemetry.*'
# The span model: one gate and one per-thread span stack feeding
# the timeline and request sinks; request-context propagation across
# pool task boundaries (nested submits, concurrent multi-tenant
# traces, span-store writers) and pooled worker chunks under both
# sinks at once.
run "$trace_test" 'TraceTest.*:RequestTraceTest.*:SpanModel.*'
# Row-parallel rendering on the global pool: the golden-hash
# sequences and the hoisted per-primitive SDF rotations.
run "$dataset_test" 'Generator.*:Scene.*'

echo "tsan_smoke: ok"
