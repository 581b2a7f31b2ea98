#!/usr/bin/env bash
# Smoke test of the tracing subsystem (docs/OBSERVABILITY.md): run
# the Fig. 1 bench for a handful of frames with --trace on and
# validate that the timeline is well-formed — the JSON loads, every
# span begin pairs with an end, and the core kernels have spans.
#
# Usage: trace_smoke.sh <path-to-bench_fig1_pipeline>
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <path-to-bench_fig1_pipeline>" >&2
    exit 2
fi
bin=$(readlink -f "$1")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$bin" --frames 6 --trace trace.json > run.log 2>&1 || {
    echo "trace_smoke: bench failed:" >&2
    cat run.log >&2
    exit 1
}

[ -s trace.json ] || { echo "trace_smoke: empty trace.json" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import collections
import json
import sys

doc = json.load(open("trace.json"))
events = doc["traceEvents"]
assert events, "no trace events"

begins = collections.Counter()
ends = collections.Counter()
for event in events:
    key = (event["tid"], event["name"])
    if event["ph"] == "B":
        begins[key] += 1
    elif event["ph"] == "E":
        ends[key] += 1
assert begins == ends, "unpaired span begin/end events"

kernels = {e["name"] for e in events if e.get("cat") == "kernel"}
for required in ("mm2meters", "bilateral_filter", "track",
                 "integrate", "raycast"):
    assert required in kernels, f"missing kernel span: {required}"
print(f"trace_smoke: ok ({len(events)} events)")
EOF
else
    # Fallback check without python3: paired B/E counts.
    b=$(grep -o '"ph":"B"' trace.json | wc -l)
    e=$(grep -o '"ph":"E"' trace.json | wc -l)
    if [ "$b" -eq 0 ] || [ "$b" -ne "$e" ]; then
        echo "trace_smoke: unpaired events (B=$b E=$e)" >&2
        exit 1
    fi
    echo "trace_smoke: ok (B=$b spans)"
fi
