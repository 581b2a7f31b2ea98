#!/usr/bin/env bash
# Figure gate, backend invariance: every kernel backend is bit-exact,
# so `--backend` may move host time only. Run bench_fig2_dse --quick
# and bench_ablations --quick once per backend (scalar, simd), each
# in its own temporary directory, and require byte-identical
# fig2_scatter.csv and ablations.csv. The modeled kernel
# implementation is a separate field (the DSE's "implementation"
# ordinal) and must not follow the flag.
#
# Usage: figures_backend_invariance.sh <bench_fig2_dse> <bench_ablations>
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <bench_fig2_dse> <bench_ablations>" >&2
    exit 2
fi
fig2=$(readlink -f "$1")
ablations=$(readlink -f "$2")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for backend in scalar simd; do
    mkdir "$workdir/$backend"
    for bin in "$fig2" "$ablations"; do
        (cd "$workdir/$backend" &&
             "$bin" --quick --backend "$backend") \
            > "$workdir/$backend/run.log" 2>&1 || {
            echo "figures_backend_invariance: $(basename "$bin")" \
                 "--backend $backend failed:" >&2
            cat "$workdir/$backend/run.log" >&2
            exit 1
        }
    done
done

status=0
for csv in fig2_scatter.csv ablations.csv; do
    if ! cmp "$workdir/scalar/$csv" "$workdir/simd/$csv"; then
        diff "$workdir/scalar/$csv" "$workdir/simd/$csv" | head -6 >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "figures_backend_invariance: ok"
exit "$status"
