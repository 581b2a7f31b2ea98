#!/usr/bin/env bash
# Smoke test of the run-report subsystem (docs/OBSERVABILITY.md): run
# the Fig. 1 bench for a handful of frames with --metrics-json /
# --frames-csv on, validate the report against the schema checker,
# verify histogram totals reconcile with mean x count, and check that
# comparing the report against itself yields zero regressions. An
# odometry leg runs slambench_cli --system odometry the same way and
# validates its report and frames CSV too.
#
# Usage: metrics_smoke.sh <path-to-bench_fig1_pipeline>
#                         <path-to-slambench_cli> <scripts-dir>
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 <path-to-bench_fig1_pipeline>" \
         "<path-to-slambench_cli> <scripts-dir>" >&2
    exit 2
fi
bin=$(readlink -f "$1")
cli=$(readlink -f "$2")
scripts=$(readlink -f "$3")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$bin" --frames 6 --metrics-json out.json --frames-csv frames.csv \
    > run.log 2>&1 || {
    echo "metrics_smoke: bench failed:" >&2
    cat run.log >&2
    exit 1
}

[ -s out.json ] || { echo "metrics_smoke: empty out.json" >&2; exit 1; }
[ -s frames.csv ] || { echo "metrics_smoke: empty frames.csv" >&2; exit 1; }

"$cli" --system odometry --frames 4 --width 80 --height 60 \
    --metrics-json odo.json --frames-csv odo.csv > odo.log 2>&1 || {
    echo "metrics_smoke: odometry run failed:" >&2
    cat odo.log >&2
    exit 1
}
odo_rows=$(wc -l < odo.csv)
if [ "$odo_rows" -ne 5 ]; then
    echo "metrics_smoke: odo.csv has $odo_rows lines, want 5" >&2
    exit 1
fi

if command -v python3 >/dev/null 2>&1; then
    # Full validation: schema + histogram reconciliation, then the
    # self-comparison must report zero regressions.
    python3 "$scripts/check_metrics_schema.py" out.json frames.csv || {
        echo "metrics_smoke: schema validation failed" >&2
        exit 1
    }
    python3 "$scripts/check_metrics_schema.py" odo.json odo.csv || {
        echo "metrics_smoke: odometry schema validation failed" >&2
        exit 1
    }
    python3 "$scripts/bench_compare.py" out.json out.json || {
        echo "metrics_smoke: self-comparison found regressions" >&2
        exit 1
    }
    python3 - <<'EOF'
import json

report = json.load(open("out.json"))
run = report["run"]
assert run["frames"] == 6, f"expected 6 frames, got {run['frames']}"
assert run["wall_seconds"] > 0.0, "wall_seconds not positive"
assert run["peak_rss_bytes"] > 0.0, "peak_rss_bytes not positive"

hist = report["histograms"]["frame_wall_seconds"]
assert hist["count"] == 6, f"histogram count {hist['count']} != 6"
assert sum(b[2] for b in hist["buckets"]) == hist["count"]
assert abs(hist["sum"] - hist["mean"] * hist["count"]) <= \
    1e-9 * max(1.0, abs(hist["sum"])), \
    "histogram sum does not reconcile with mean*count"

counters = report["counters"]
assert counters.get("pipeline.frames") == 6, counters
rows = open("frames.csv").read().splitlines()
assert len(rows) == 1 + 6, f"frames.csv rows: {len(rows)}"
print("metrics_smoke: ok (6 frames, %d counters)" % len(counters))
EOF
else
    # Fallback check without python3: key fields present and the
    # frames CSV has a header plus one row per frame.
    grep -q '"schema": "slambench-run-report"' out.json || {
        echo "metrics_smoke: missing schema marker" >&2
        exit 1
    }
    grep -q '"frames": 6' out.json || {
        echo "metrics_smoke: wrong frame count in out.json" >&2
        exit 1
    }
    rows=$(wc -l < frames.csv)
    if [ "$rows" -ne 7 ]; then
        echo "metrics_smoke: frames.csv has $rows lines, want 7" >&2
        exit 1
    fi
    echo "metrics_smoke: ok (grep fallback)"
fi
