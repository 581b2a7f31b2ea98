#!/usr/bin/env bash
# Malformed command lines are usage errors: each binary must exit 2
# with a message on stderr before doing any work, i.e. before it
# prints a "generating" line or synthesizes a frame. Each binary gets
# an unknown flag and a negative frame count, plus every case below
# whose first flag it accepts: a non-numeric --vr, an out-of-set
# --csr, values that used to be clamped silently, and the CLI's
# --dump-mesh/odometry clash.
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
    elif grep -q generating "$workdir/out"; then
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
    "--dump-mesh mesh.obj --system odometry"
)

for bin in "$@"; do
    check "$bin" --bogus-flag 1
    check "$bin" --frames -5
    help=$("$bin" --help)
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
