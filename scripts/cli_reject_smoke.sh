#!/usr/bin/env bash
# Malformed command lines are usage errors: each binary must exit 2
# with a message on stderr before doing any work, i.e. before it
# prints a "generating" (slambench_serve: "standing up") line or
# synthesizes a frame. Each binary gets an unknown flag and a
# negative frame count, plus every case below whose first flag it
# accepts: a non-numeric --vr, an out-of-set --csr, values that used
# to be clamped silently, the deleted "mixed" kernel backend, an
# unknown volume backend (the option parser and
# KFusionConfig::validate() are all that stand in front of building
# the map), frames too small for the compute image (4x4, the checks
# KFusion's constructor and OdometrySystem::initialize make), the
# CLI's KinectFusion-only flags (--dump-mesh, the map flags --volume,
# --vr, --vs, --mu, --ir, --tr, --rr, and --backend) and thread flags
# (--impl, --dse-threads) given with --system odometry, which would
# ignore them, and an output path
# (--frames-csv, --metrics-json, --trace, --crash-dump) in a
# directory that does not exist. The deleted --perf-csv (every binary
# with --trace) and --log (slambench_cli) per-frame tables must be
# rejected too: --frames-csv replaced both. So must the deleted
# hardware-counter flag --pmu and the deleted sparse-volume tuning
# flags --block-size and --pool-capacity, on every binary.
#
# The examples that take positional integers (quickstart,
# compare_systems, mobile_fleet, dse_exploration) get garbage,
# negative, zero and surplus arguments instead.
#
# Usage: cli_reject_smoke.sh <binary>...
set -u

if [ $# -eq 0 ]; then
    echo "usage: $0 <binary>..." >&2
    exit 2
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

failures=0
check() {
    local bin="$1"
    shift
    local status=0
    timeout 10 "$bin" "$@" > "$workdir/out" 2> "$workdir/err" \
        || status=$?
    if [ "$status" -ne 2 ]; then
        echo "cli_reject_smoke: $(basename "$bin") $*: exit $status," \
             "want 2" >&2
        failures=$((failures + 1))
    elif grep -Eq "generating|standing up" "$workdir/out"; then
        echo "cli_reject_smoke: $(basename "$bin") $*: started work" \
             "before rejecting" >&2
        failures=$((failures + 1))
    elif ! [ -s "$workdir/err" ]; then
        echo "cli_reject_smoke: $(basename "$bin") $*: no message" >&2
        failures=$((failures + 1))
    fi
}

cases=(
    "--vr abc"
    "--csr 3"
    "--serve-tenants 0"
    "--serve-queue-hi 0"
    "--trace-sample-rate 2"
    "--recorder-slots 0"
    "--dse-threads -1"
    "--backend mixed"
    "--volume hashed"
    "--width 4 --height 4 --frames 1"
    "--system odometry --width 4 --height 4 --frames 1"
    "--dump-mesh mesh.obj --system odometry"
    "--system odometry --volume sparse"
    "--system odometry --vr 128"
    "--system odometry --vs 4"
    "--system odometry --mu 0.2"
    "--system odometry --ir 1"
    "--system odometry --tr 1"
    "--system odometry --rr 1"
    "--system odometry --backend scalar"
    "--system odometry --impl threaded"
    "--system odometry --dse-threads 2"
    "--frames-csv /nonexistent/d/x.csv"
    "--metrics-json /nonexistent/d/y.json"
    "--trace /nonexistent/d/t.json"
    "--crash-dump /nonexistent/d/c.json"
)

for bin in "$@"; do
    check "$bin" --bogus-flag 1
    check "$bin" --frames -5
    check "$bin" --pmu
    check "$bin" --block-size 8
    check "$bin" --pool-capacity 0
    case "$(basename "$bin")" in
    quickstart)
        check "$bin" abc
        check "$bin" -3
        check "$bin" 0
        check "$bin" 4 0
        check "$bin" 4 160 12x
        check "$bin" 4 160 120 1
        ;;
    compare_systems)
        check "$bin" abc
        check "$bin" -1
        check "$bin" 0
        check "$bin" 4 4
        ;;
    mobile_fleet)
        check "$bin" abc
        check "$bin" -2
        check "$bin" 0
        check "$bin" 5 0
        check "$bin" 5 4 1
        ;;
    dse_exploration)
        check "$bin" abc
        check "$bin" -24
        check "$bin" 0
        check "$bin" 24 0
        check "$bin" 24 12 -1
        check "$bin" 24 12 1x
        check "$bin" 24 12 1 1
        ;;
    esac
    help=$("$bin" --help)
    if grep -q "^  --trace " <<< "$help"; then
        check "$bin" --perf-csv p.csv
    fi
    if [ "$(basename "$bin")" = slambench_cli ]; then
        check "$bin" --log l.csv
    fi
    for case in "${cases[@]}"; do
        read -r -a args <<< "$case"
        if grep -q "^  ${args[0]} " <<< "$help"; then
            check "$bin" "${args[@]}"
        fi
    done
done

if [ "$failures" -gt 0 ]; then
    echo "cli_reject_smoke: $failures failure(s)" >&2
    exit 1
fi
echo "cli_reject_smoke: ok ($# binaries)"
