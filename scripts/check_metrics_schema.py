#!/usr/bin/env python3
"""Validate a slambench run report against its schema invariants.

Usage: check_metrics_schema.py REPORT.json [FRAMES.csv]
           [--serve [--tenants N]]

Checks the report produced by `--metrics-json` (and optionally the
matching `--frames-csv` table):

  * required top-level keys, with the right JSON types;
  * schema name/version match this validator;
  * run counters are consistent (tracked <= frames, ...);
  * summary quantiles are ordered (p50 <= p90 <= p99 <= max) and the
    mean lies within [min, max] for every histogram;
  * per-histogram bucket counts sum to the histogram count, buckets
    are disjoint and ascending, and the bucket-estimated total
    (midpoint x count) reconciles with mean x count;
  * every `pipeline.kernel_seconds{kernel="..."}` histogram (the
    always-on per-kernel time) names a kernelName() string;
  * the frames CSV (when given) has the documented 35-column header
    and one row per frame of the report. On each row integrated=1
    exactly when integrate_ms and kernel_integrate_items are
    positive; integrate_ms equals kernel_integrate_ms as a string;
    preprocess_ms, track_ms and raycast_ms equal the sums of their
    kernel groups (docs/OBSERVABILITY.md) within 1e-9 relative; and
    sim_seconds and every kernel_* cell are finite and >= 0.

--serve additionally validates a slambench_serve run report
(docs/SERVING.md): the serve_* summary block, the per-tenant
`tenant.<id>.device` config params, the `serve.tenant.*{tenant=...}`
labeled registry series, and cross-checks between the serve counters
and the frame table. --tenants N pins the expected tenant count.

Exit status: 0 = valid, 1 = invalid, 2 = usage/parse error.
Stdlib only.
"""

import argparse
import csv
import json
import math
import re
import sys

SCHEMA = "slambench-run-report"
SCHEMA_VERSION = 1

# kfusion::kernelName() of every KernelId, in enum order.
KERNELS = [
    "mm2meters", "bilateral_filter", "half_sample", "depth2vertex",
    "vertex2normal", "track", "reduce", "solve", "integrate",
    "raycast", "render_volume",
]

KERNEL_COLUMNS = ["kernel_%s_ms" % k for k in KERNELS] + [
    "kernel_%s_items" % k for k in KERNELS]

FRAMES_CSV_HEADER = [
    "label", "frame", "wall_ms", "preprocess_ms", "track_ms",
    "integrate_ms", "raycast_ms", "ate_m", "tracked", "integrated",
    "sim_joules", "rss_peak_bytes", "sim_seconds",
] + KERNEL_COLUMNS

# Phase columns and the kernels whose host time they sum.
PHASE_KERNELS = {
    "preprocess_ms": ["mm2meters", "bilateral_filter", "half_sample",
                      "depth2vertex", "vertex2normal"],
    "track_ms": ["track", "reduce", "solve"],
    "raycast_ms": ["raycast", "render_volume"],
}

errors = []


def fail(message):
    errors.append(message)


def require(condition, message):
    if not condition:
        fail(message)
    return condition


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(
        value, bool)


def check_top_level(report):
    required = {
        "schema": str,
        "schema_version": int,
        "generator": str,
        "created_unix": int,
        "git_describe": str,
        "build": dict,
        "config": dict,
        "run": dict,
        "summary": dict,
        "counters": dict,
        "gauges": dict,
        "histograms": dict,
    }
    for key, kind in required.items():
        if not require(key in report, "missing top-level key %r" % key):
            continue
        require(isinstance(report[key], kind),
                "%r should be %s, got %s"
                % (key, kind.__name__, type(report[key]).__name__))

    require(report.get("schema") == SCHEMA,
            "schema is %r, want %r" % (report.get("schema"), SCHEMA))
    require(report.get("schema_version") == SCHEMA_VERSION,
            "schema_version is %r, want %d"
            % (report.get("schema_version"), SCHEMA_VERSION))

    for key in ("build_type", "compiler", "cxx_flags"):
        require(isinstance(report.get("build", {}).get(key), str),
                "build.%s should be a string" % key)


def check_run(report):
    run = report.get("run", {})
    for key in ("wall_seconds", "cpu_seconds", "frames",
                "tracked_frames", "integrated_frames",
                "peak_rss_bytes"):
        require(is_number(run.get(key)),
                "run.%s should be a number" % key)
    frames = run.get("frames", 0)
    if is_number(frames):
        for key in ("tracked_frames", "integrated_frames"):
            value = run.get(key, 0)
            if is_number(value):
                require(0 <= value <= frames,
                        "run.%s=%s outside [0, frames=%s]"
                        % (key, value, frames))
    return frames if is_number(frames) else 0


def check_summary(report):
    summary = report.get("summary", {})
    for key in ("frame_wall_seconds_mean", "frame_wall_seconds_p50",
                "frame_wall_seconds_p90", "frame_wall_seconds_p99",
                "frame_wall_seconds_max", "ate_mean_m", "ate_max_m",
                "tracked_fraction", "sim_joules_total",
                "peak_rss_bytes"):
        require(is_number(summary.get(key)),
                "summary.%s should be a number" % key)

    p50 = summary.get("frame_wall_seconds_p50", 0)
    p90 = summary.get("frame_wall_seconds_p90", 0)
    p99 = summary.get("frame_wall_seconds_p99", 0)
    pmax = summary.get("frame_wall_seconds_max", 0)
    if all(is_number(v) for v in (p50, p90, p99, pmax)):
        require(p50 <= p90 + 1e-12 and p90 <= p99 + 1e-12 and
                p99 <= pmax + 1e-12,
                "summary frame-time quantiles not ordered: "
                "p50=%g p90=%g p99=%g max=%g" % (p50, p90, p99, pmax))
    fraction = summary.get("tracked_fraction", 0)
    if is_number(fraction):
        require(0.0 <= fraction <= 1.0,
                "summary.tracked_fraction=%g outside [0,1]" % fraction)


def check_histograms(report):
    for name, hist in report.get("histograms", {}).items():
        where = "histograms[%r]" % name
        if not require(isinstance(hist, dict),
                       "%s should be an object" % where):
            continue
        for key in ("count", "sum", "mean", "min", "max", "p50",
                    "p90", "p99"):
            require(is_number(hist.get(key)),
                    "%s.%s should be a number" % (where, key))
        buckets = hist.get("buckets")
        if not require(isinstance(buckets, list),
                       "%s.buckets should be a list" % where):
            continue

        count = hist.get("count", 0)
        total = 0
        prev_hi = None
        estimate = 0.0
        all_bounded = True
        for i, bucket in enumerate(buckets):
            bwhere = "%s.buckets[%d]" % (where, i)
            if not require(isinstance(bucket, list) and
                           len(bucket) == 3,
                           "%s should be [lo, hi, count]" % bwhere):
                continue
            lo, hi, n = bucket
            require(is_number(lo), "%s lo not a number" % bwhere)
            require(hi is None or is_number(hi),
                    "%s hi not number/null" % bwhere)
            require(isinstance(n, int) and n >= 0,
                    "%s count not a non-negative int" % bwhere)
            if hi is not None and is_number(lo):
                require(lo < hi, "%s empty range [%s, %s)"
                        % (bwhere, lo, hi))
            if prev_hi is not None and is_number(lo):
                require(lo >= prev_hi - 1e-18,
                        "%s overlaps the previous bucket" % bwhere)
            prev_hi = hi if hi is not None else float("inf")
            if isinstance(n, int):
                total += n
                if hi is None:
                    all_bounded = False
                elif is_number(lo):
                    estimate += n * (lo + hi) / 2.0

        require(total == count,
                "%s bucket counts sum to %d, count says %s"
                % (where, total, count))

        mean = hist.get("mean", 0)
        lo_v = hist.get("min", 0)
        hi_v = hist.get("max", 0)
        if all(is_number(v) for v in (mean, lo_v, hi_v)) and count:
            require(lo_v - 1e-12 <= mean <= hi_v + 1e-12,
                    "%s mean %g outside [min=%g, max=%g]"
                    % (where, mean, lo_v, hi_v))
            for a, b in (("p50", "p90"), ("p90", "p99")):
                if is_number(hist.get(a)) and is_number(hist.get(b)):
                    require(hist[a] <= hist[b] + 1e-12,
                            "%s %s > %s" % (where, a, b))
            # Reconcile the bucket-estimated mass against the exact
            # sum. Geometric buckets are ~33% wide, so midpoints are
            # at most ~17% off per bucket; 25% covers rounding.
            exact = mean * count
            if all_bounded and exact > 0.0:
                require(abs(estimate - exact) <= 0.25 * exact,
                        "%s bucket mass %g does not reconcile with "
                        "mean*count %g" % (where, estimate, exact))


KERNEL_SECONDS_FAMILY = "pipeline.kernel_seconds"


def check_kernel_seconds(report):
    """Each `pipeline.kernel_seconds` series carries exactly one
    `kernel` label whose value is a kernelName() string."""
    for name in report.get("histograms", {}):
        if name.split("{")[0] != KERNEL_SECONDS_FAMILY:
            continue
        label = name[len(KERNEL_SECONDS_FAMILY):]
        kernel = label[len('{kernel="'):-len('"}')]
        require(label == '{kernel="%s"}' % kernel and kernel in KERNELS,
                "histogram %r is not %s{kernel=\"<kernelName()>\"}"
                % (name, KERNEL_SECONDS_FAMILY))


SERVE_SUMMARY_KEYS = (
    "serve_ticks", "serve_tenants", "serve_frames_processed",
    "serve_frames_shed", "serve_shed_engaged", "serve_shed_cleared",
    "serve_frame_p99_seconds",
)


def check_serve(report, tenants):
    """slambench_serve reports: multi-tenant summary block, one
    `tenant.<id>.device` config param and one labeled
    `serve.tenant.*` series per tenant, and serve counters that
    reconcile with the run's frame table."""
    require(report.get("generator") == "slambench_serve",
            "generator is %r, want 'slambench_serve'"
            % report.get("generator"))

    summary = report.get("summary", {})
    for key in SERVE_SUMMARY_KEYS:
        if require(is_number(summary.get(key)),
                   "summary.%s should be a number" % key):
            require(summary[key] >= 0,
                    "summary.%s=%g negative" % (key, summary[key]))

    declared = summary.get("serve_tenants", 0)
    if tenants is not None:
        require(declared == tenants,
                "summary.serve_tenants=%s, want %d"
                % (declared, tenants))

    # One device assignment per tenant in the config params, and the
    # ids they imply must each carry labeled per-tenant series.
    config = report.get("config", {})
    ids = sorted(
        m.group(1) for m in
        (re.match(r"tenant\.([^.]+)\.device$", key)
         for key in config) if m)
    if is_number(declared):
        require(len(ids) == int(declared),
                "config lists %d tenant devices, "
                "summary.serve_tenants says %s"
                % (len(ids), declared))

    counters = report.get("counters", {})
    gauges = report.get("gauges", {})
    for tenant_id in ids:
        series = 'serve.tenant.frames{tenant="%s"}' % tenant_id
        require(series in counters,
                "missing labeled counter %s" % series)
    require(is_number(gauges.get("serve.tenants")) and
            gauges.get("serve.tenants") == declared,
            "gauges['serve.tenants']=%r disagrees with "
            "summary.serve_tenants=%s"
            % (gauges.get("serve.tenants"), declared))

    # The per-tenant labeled counters must sum to the aggregate; the
    # aggregate must match both the summary and the frame table.
    processed = summary.get("serve_frames_processed", 0)
    frames = report.get("run", {}).get("frames", 0)
    require(counters.get("serve.frames") == processed,
            "counters['serve.frames']=%r, summary says %s"
            % (counters.get("serve.frames"), processed))
    require(frames == processed,
            "run.frames=%s, summary.serve_frames_processed=%s"
            % (frames, processed))
    require(counters.get("serve.frames_shed", 0) ==
            summary.get("serve_frames_shed", 0),
            "counters['serve.frames_shed']=%r disagrees with "
            "summary.serve_frames_shed=%r"
            % (counters.get("serve.frames_shed", 0),
               summary.get("serve_frames_shed", 0)))
    if ids:
        per_tenant = sum(
            counters.get('serve.tenant.frames{tenant="%s"}'
                         % tenant_id, 0) for tenant_id in ids)
        require(per_tenant == processed,
                "per-tenant frame counters sum to %s, aggregate "
                "is %s" % (per_tenant, processed))

    # Shedding bookkeeping: clears never outnumber engagements, and
    # shed frames imply at least one engagement.
    engaged = summary.get("serve_shed_engaged", 0)
    cleared = summary.get("serve_shed_cleared", 0)
    shed = summary.get("serve_frames_shed", 0)
    if all(is_number(v) for v in (engaged, cleared, shed)):
        require(cleared <= engaged,
                "serve_shed_cleared=%g > serve_shed_engaged=%g"
                % (cleared, engaged))
        if shed > 0:
            require(engaged >= 1,
                    "%g frames shed but no engagement recorded"
                    % shed)


def check_frames_csv(path, frames):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise SystemExit("check_metrics_schema: cannot read %s: %s"
                         % (path, exc))
    if not require(rows, "%s is empty" % path):
        return
    require(rows[0] == FRAMES_CSV_HEADER,
            "%s header mismatch: %r" % (path, rows[0]))
    data = rows[1:]
    require(len(data) == frames,
            "%s has %d data rows, report says %d frames"
            % (path, len(data), frames))
    for i, row in enumerate(data):
        if not require(len(row) == len(FRAMES_CSV_HEADER),
                       "%s row %d has %d fields, want %d"
                       % (path, i + 1, len(row),
                          len(FRAMES_CSV_HEADER))):
            continue
        for col in ("tracked", "integrated"):
            value = row[FRAMES_CSV_HEADER.index(col)]
            require(value in ("0", "1"),
                    "%s row %d: %s=%r not 0/1"
                    % (path, i + 1, col, value))
        # A frame integrated exactly when it spent integrate time.
        integrated = row[FRAMES_CSV_HEADER.index("integrated")]
        integrate_ms = row[FRAMES_CSV_HEADER.index("integrate_ms")]
        try:
            spent = float(integrate_ms) > 0.0
        except ValueError:
            require(False, "%s row %d: integrate_ms=%r not a number"
                    % (path, i + 1, integrate_ms))
            continue
        require((integrated == "1") == spent,
                "%s row %d: integrated=%s but integrate_ms=%s"
                % (path, i + 1, integrated, integrate_ms))
        check_kernel_columns(path, i + 1, row)


def check_kernel_columns(path, line, row):
    """Cross-check one frames-CSV row's kernel columns."""
    cell = dict(zip(FRAMES_CSV_HEADER, row))
    values = {}
    for col in ["sim_seconds"] + KERNEL_COLUMNS:
        try:
            value = float(cell[col])
        except ValueError:
            require(False, "%s row %d: %s=%r not a number"
                    % (path, line, col, cell[col]))
            return
        if not require(math.isfinite(value) and value >= 0.0,
                       "%s row %d: %s=%s not finite and >= 0"
                       % (path, line, col, cell[col])):
            return
        values[col] = value
    require(cell["integrate_ms"] == cell["kernel_integrate_ms"],
            "%s row %d: integrate_ms=%s but kernel_integrate_ms=%s"
            % (path, line, cell["integrate_ms"],
               cell["kernel_integrate_ms"]))
    require((cell["integrated"] == "1") ==
            (values["kernel_integrate_items"] > 0.0),
            "%s row %d: integrated=%s but kernel_integrate_items=%s"
            % (path, line, cell["integrated"],
               cell["kernel_integrate_items"]))
    for phase, kernels in PHASE_KERNELS.items():
        try:
            phase_ms = float(cell[phase])
        except ValueError:
            require(False, "%s row %d: %s=%r not a number"
                    % (path, line, phase, cell[phase]))
            continue
        kernel_ms = sum(values["kernel_%s_ms" % k] for k in kernels)
        require(abs(phase_ms - kernel_ms) <=
                1e-9 * max(abs(phase_ms), abs(kernel_ms)),
                "%s row %d: %s=%s but its kernels sum to %r"
                % (path, line, phase, cell[phase], kernel_ms))


def main():
    parser = argparse.ArgumentParser(
        description="Validate a slambench run report")
    parser.add_argument("report", help="--metrics-json output")
    parser.add_argument("frames_csv", nargs="?", default=None,
                        help="matching --frames-csv table")
    parser.add_argument("--serve", action="store_true",
                        help="validate a slambench_serve report "
                        "(per-tenant params, labeled series, serve "
                        "summary block)")
    parser.add_argument("--tenants", type=int, default=None,
                        metavar="N",
                        help="with --serve: expected tenant count")
    args = parser.parse_args()
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print("check_metrics_schema: cannot parse %s: %s"
              % (args.report, exc), file=sys.stderr)
        return 2

    check_top_level(report)
    frames = check_run(report)
    check_summary(report)
    check_histograms(report)
    check_kernel_seconds(report)
    if args.serve:
        check_serve(report, args.tenants)
    if args.frames_csv is not None:
        check_frames_csv(args.frames_csv, frames)

    if errors:
        for message in errors:
            print("check_metrics_schema: %s" % message,
                  file=sys.stderr)
        print("%s: INVALID (%d problem(s))"
              % (args.report, len(errors)))
        return 1
    print("%s: OK" % args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
