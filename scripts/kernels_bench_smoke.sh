#!/usr/bin/env bash
# Smoke test of the kernel-bench report (docs/OBSERVABILITY.md): run a
# fast subset of bench_kernels with --metrics-json on, validate the
# report against the kernel-bench schema checker, sanity-check the
# integrate entries, and check that comparing the report against
# itself yields zero regressions. A --roofline leg on one integrate
# row checks that the row carries the device-model bandwidth and the
# measured fraction of it, and that the console table lists the row.
#
# Usage: kernels_bench_smoke.sh <path-to-bench_kernels> <scripts-dir>
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 <path-to-bench_kernels> <scripts-dir>" >&2
    exit 2
fi
bin=$(readlink -f "$1")
scripts=$(readlink -f "$2")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

# Small volume, short min time: exercises the culled integrate bench
# on every kernel backend, the dense reference, the sparse-volume
# twins, one image kernel and the bilateral filter and track on every
# backend in a couple of seconds. The per-backend rows ("BM_Integrate@scalar"
# and friends) exercise the report's backend field and
# bench_compare's (name, backend) keying; the sparse rows exercise
# the volume/volume_bytes fields and the --max-volume-bytes-regress
# gate.
"$bin" --benchmark_filter='BM_Integrate(Dense)?/64|BM_Integrate(Sparse)?@[^/]+/64|BM_RaycastSparse@[^/]+/64|BM_Mm2Meters/160/120|BM_BilateralFilter@[^/]+/160/120|BM_TrackKernel@[^/]+/160/120' \
    --benchmark_min_time=0.01 --metrics-json out.json \
    > run.log 2>&1 || {
    echo "kernels_bench_smoke: bench failed:" >&2
    cat run.log >&2
    exit 1
}

[ -s out.json ] || {
    echo "kernels_bench_smoke: empty out.json" >&2
    exit 1
}

if command -v python3 >/dev/null 2>&1; then
    # Full validation: schema + derived-field reconciliation, then
    # the self-comparison must report zero regressions.
    python3 "$scripts/check_kernel_bench_schema.py" out.json || {
        echo "kernels_bench_smoke: schema validation failed" >&2
        exit 1
    }
    python3 "$scripts/bench_compare.py" out.json out.json \
        --max-volume-bytes-regress 0.0 || {
        echo "kernels_bench_smoke: self-comparison found regressions" >&2
        exit 1
    }
    python3 - <<'EOF'
import json

report = json.load(open("out.json"))
kernels = {(k["name"], k.get("backend", "")): k
           for k in report["kernels"]}
assert len(kernels) == len(report["kernels"]), \
    "duplicate (name, backend) rows in report"
for key in (("BM_Integrate/64", "scalar"),
            ("BM_Integrate/64", "simd"),
            ("BM_IntegrateDense/64", ""),
            ("BM_IntegrateSparse/64", "scalar"),
            ("BM_RaycastSparse/64", "scalar"),
            ("BM_RaycastSparse/64", "simd"),
            ("BM_BilateralFilter/160/120", "scalar"),
            ("BM_BilateralFilter/160/120", "simd"),
            ("BM_TrackKernel/160/120", "scalar"),
            ("BM_TrackKernel/160/120", "simd"),
            ("BM_Mm2Meters/160/120", "")):
    assert key in kernels, f"{key} missing from report"
for k in report["kernels"]:
    expect = "sparse" if "Sparse" in k["name"] else "dense"
    assert k.get("volume") == expect, \
        f"{k['name']}: volume={k.get('volume')!r}, want {expect!r}"
culled = kernels[("BM_Integrate/64", "scalar")]
dense = kernels[("BM_IntegrateDense/64", "")]
# Culling must do strictly less work per pass than the dense sweep
# (items_per_second is per visited voxel, so compare whole-kernel
# time instead).
assert culled["real_ns_per_iter"] < dense["real_ns_per_iter"], \
    "culled integrate not faster than dense"
# The sparse rows export their resident footprint. (No dense-vs-
# sparse size assertion here: at res 64 the pool's 2 MiB chunk
# granularity is on the order of the whole dense array; the memory
# win is gated at real resolutions by EXPERIMENTS.md runs.)
sparse = kernels[("BM_IntegrateSparse/64", "scalar")]
assert sparse.get("volume_bytes", 0) > 0, \
    "sparse row missing volume_bytes"
print("kernels_bench_smoke: ok (%d kernels)" % len(kernels))
EOF

    "$bin" --benchmark_filter='BM_Integrate@scalar/64$' --roofline \
        --benchmark_min_time=0.01 --metrics-json roof.json \
        > roof.log 2>&1 || {
        echo "kernels_bench_smoke: --roofline run failed:" >&2
        cat roof.log >&2
        exit 1
    }
    grep -q '^ROOFLINE: measured bytes/s vs device model' roof.log &&
        grep -q '^BM_Integrate/64  *scalar ' roof.log || {
        echo "kernels_bench_smoke: --roofline table lacks the row:" >&2
        cat roof.log >&2
        exit 1
    }
    python3 "$scripts/check_kernel_bench_schema.py" roof.json || {
        echo "kernels_bench_smoke: --roofline schema validation" \
             "failed" >&2
        exit 1
    }
    python3 - <<'EOF'
import json

rows = json.load(open("roof.json"))["kernels"]
assert len(rows) == 1, f"want one roofline row, got {len(rows)}"
row = rows[0]
assert row["bytes_per_second"] > 0, "roofline row has no bytes/s"
assert row["roofline_bytes_per_second"] > 0, "no roofline bandwidth"
assert row["roofline_fraction"] > 0, "no roofline fraction"
print("kernels_bench_smoke: roofline ok (%.1f%% of the model)"
      % (100.0 * row["roofline_fraction"]))
EOF
else
    # Fallback check without python3: schema marker, the expected
    # kernel entries, and at least one per-backend row are present.
    grep -q '"schema": "slambench-kernel-bench"' out.json || {
        echo "kernels_bench_smoke: missing schema marker" >&2
        exit 1
    }
    for name in 'BM_Integrate/64' 'BM_IntegrateDense/64' \
        'BM_Mm2Meters/160/120'; do
        grep -q "\"name\": \"$name\"" out.json || {
            echo "kernels_bench_smoke: $name missing from out.json" >&2
            exit 1
        }
    done
    for backend in scalar simd; do
        grep -q "\"backend\": \"$backend\"" out.json || {
            echo "kernels_bench_smoke: no $backend rows in out.json" >&2
            exit 1
        }
    done
    echo "kernels_bench_smoke: ok (grep fallback)"
fi
