#!/usr/bin/env python3
"""Compare two slambench metrics reports and flag regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json
        [--max-frame-time-regress FRAC]   (default 0.10)
        [--max-ate-regress FRAC]          (default 0.10)
        [--max-rss-regress FRAC]          (default 0.20)
        [--max-kernel-regress FRAC]       (default 0.25)
        [--telemetry-overhead-pct [PCT]]  (off; bare flag = 1.0)
        [--max-serve-p99-regress FRAC]    (off)
        [--max-volume-bytes-regress FRAC] (off)

Both inputs are `--metrics-json` reports of the SAME schema (see
docs/OBSERVABILITY.md). Two schemas are understood:

"slambench-run-report" (pipeline benches) gates on:

  * summary.frame_wall_seconds_mean   (frame time, mean)
  * summary.frame_wall_seconds_p99    (frame time, tail)
  * summary.ate_max_m                 (accuracy)
  * run.peak_rss_bytes                (memory high-water mark)

"slambench-kernel-bench" (bench_kernels) gates every kernel present
in both reports on ns_per_item when both sides report it (work-
normalized, robust to iteration-count changes), falling back to
real_ns_per_iter, against --max-kernel-regress. Microbenchmark noise
is larger than whole-run noise, hence the wider default threshold.
Kernels present on only one side are reported as informational.

--telemetry-overhead-pct arms an extra gate for run reports: the
candidate's summary.frame_wall_seconds_p50 must stay within PCT
percent of the baseline's. The telemetry smoke test uses it to
assert that running with --telemetry-port does not slow the frame
loop down (p50 is the stable center of the distribution, so it
isolates per-frame overhead from tail noise).

--max-volume-bytes-regress arms a memory gate for kernel-bench
reports: rows carrying a "volume_bytes" field (the sparse TSDF
benches' resident footprint after fusion) must not grow by more than
FRAC over the baseline. This catches allocation-policy regressions —
a sparse volume that starts allocating blocks the integration never
fuses loses its memory advantage without slowing anything down, so
the timing gates alone would miss it. Rows where either side lacks
the field are skipped.

--max-serve-p99-regress arms a serve-mode gate for run reports: the
candidate's summary.serve_frame_p99_seconds (the aggregate
frame-latency tail of a slambench_serve run, see docs/SERVING.md)
must not exceed the baseline's by more than FRAC. Skipped when
either side lacks the key, so mixed serve/bench comparisons still
work.

A metric regresses when the candidate exceeds the baseline by more
than the configured relative threshold. Metrics that are zero or
missing in the baseline are reported as informational only.

Exit status: 0 = no regressions, 1 = at least one regression,
2 = usage or parse error. Stdlib only.
"""

import argparse
import json
import sys


GATES = [
    # (section, key, threshold-option, human label)
    ("summary", "frame_wall_seconds_mean", "max_frame_time_regress",
     "mean frame time"),
    ("summary", "frame_wall_seconds_p99", "max_frame_time_regress",
     "p99 frame time"),
    ("summary", "ate_max_m", "max_ate_regress", "max ATE"),
    ("run", "peak_rss_bytes", "max_rss_regress", "peak RSS"),
]


KNOWN_SCHEMAS = ("slambench-run-report", "slambench-kernel-bench")


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit("bench_compare: cannot read %s: %s"
                         % (path, exc))
    if report.get("schema") not in KNOWN_SCHEMAS:
        raise SystemExit("bench_compare: %s has unknown schema %r "
                         "(want one of %s)"
                         % (path, report.get("schema"),
                            ", ".join(KNOWN_SCHEMAS)))
    return report


def metric(report, section, key):
    value = report.get(section, {}).get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def kernel_metric(entry, key):
    value = entry.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def kernels_by_name(report, path):
    kernels = report.get("kernels")
    if not isinstance(kernels, list):
        raise SystemExit("bench_compare: %s has no kernels list"
                         % path)
    by_name = {}
    for entry in kernels:
        if isinstance(entry, dict) and isinstance(
                entry.get("name"), str):
            # Per-backend rows share a name ("BM_Integrate/64" exists
            # once per kernel backend); key by (name, backend) so
            # each backend's timing is gated independently instead of
            # the last row silently shadowing the others.
            backend = entry.get("backend")
            if not isinstance(backend, str):
                backend = ""
            by_name[(entry["name"], backend)] = entry
    return by_name


def kernel_label(key):
    name, backend = key
    return "%s@%s" % (name, backend) if backend else name


def compare_kernels(args, baseline, candidate):
    """Per-kernel gate for slambench-kernel-bench reports."""
    base_kernels = kernels_by_name(baseline, args.baseline)
    cand_kernels = kernels_by_name(candidate, args.candidate)
    threshold = args.max_kernel_regress

    regressions = 0
    for key in sorted(base_kernels):
        name = kernel_label(key)
        if key not in cand_kernels:
            print("  %-24s missing in candidate -- skipped" % name)
            continue
        base_entry = base_kernels[key]
        cand_entry = cand_kernels[key]
        if args.max_volume_bytes_regress is not None:
            base_vb = kernel_metric(base_entry, "volume_bytes")
            cand_vb = kernel_metric(cand_entry, "volume_bytes")
            if (base_vb is not None and cand_vb is not None
                    and base_vb > 0.0):
                delta = (cand_vb - base_vb) / base_vb
                regressed = delta > args.max_volume_bytes_regress
                if regressed:
                    regressions += 1
                print("  %-24s volume bytes baseline %.6g -> "
                      "candidate %.6g (%+.1f%%, limit +%.0f%%)%s"
                      % (name, base_vb, cand_vb, delta * 100.0,
                         args.max_volume_bytes_regress * 100.0,
                         "  REGRESSION" if regressed else ""))
        # ns/item (per voxel visit, per ray, ...) is work-normalized,
        # so it survives iteration-count and culling-rate changes;
        # plain per-iteration time is the fallback.
        base = kernel_metric(base_entry, "ns_per_item")
        cand = kernel_metric(cand_entry, "ns_per_item")
        label = "ns/item"
        if base is None or cand is None:
            base = kernel_metric(base_entry, "real_ns_per_iter")
            cand = kernel_metric(cand_entry, "real_ns_per_iter")
            label = "ns/iter"
        if base is None or cand is None:
            print("  %-24s no comparable timing -- skipped" % name)
            continue
        if base <= 0.0:
            print("  %-24s %s baseline %.6g, candidate %.6g "
                  "(zero baseline, informational)"
                  % (name, label, base, cand))
            continue
        delta = (cand - base) / base
        regressed = delta > threshold
        if regressed:
            regressions += 1
        print("  %-24s %s baseline %.6g -> candidate %.6g "
              "(%+.1f%%, limit +%.0f%%)%s"
              % (name, label, base, cand, delta * 100.0,
                 threshold * 100.0,
                 "  REGRESSION" if regressed else ""))
    for key in sorted(set(cand_kernels) - set(base_kernels)):
        print("  %-24s new in candidate -- informational"
              % kernel_label(key))

    print()
    if regressions:
        print("%d regression(s) detected" % regressions)
        return 1
    print("no regressions")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two slambench run reports")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--max-frame-time-regress", type=float,
                        default=0.10, dest="max_frame_time_regress",
                        help="allowed relative frame-time increase")
    parser.add_argument("--max-ate-regress", type=float, default=0.10,
                        dest="max_ate_regress",
                        help="allowed relative max-ATE increase")
    parser.add_argument("--max-rss-regress", type=float, default=0.20,
                        dest="max_rss_regress",
                        help="allowed relative peak-RSS increase")
    parser.add_argument("--max-kernel-regress", type=float,
                        default=0.25, dest="max_kernel_regress",
                        help="allowed relative per-kernel time "
                        "increase (kernel-bench reports)")
    parser.add_argument("--telemetry-overhead-pct", type=float,
                        nargs="?", const=1.0, default=None,
                        dest="telemetry_overhead_pct",
                        metavar="PCT",
                        help="also gate frame_wall_seconds_p50 "
                        "within PCT percent of the baseline "
                        "(bare flag = 1.0)")
    parser.add_argument("--max-volume-bytes-regress", type=float,
                        default=None,
                        dest="max_volume_bytes_regress",
                        metavar="FRAC",
                        help="allowed relative increase of per-row "
                        "volume_bytes (kernel-bench reports; sparse "
                        "TSDF resident footprint)")
    parser.add_argument("--max-serve-p99-regress", type=float,
                        default=None, dest="max_serve_p99_regress",
                        metavar="FRAC",
                        help="allowed relative increase of "
                        "summary.serve_frame_p99_seconds "
                        "(slambench_serve reports; skipped when "
                        "either side lacks the key)")
    args = parser.parse_args()

    baseline = load_report(args.baseline)
    candidate = load_report(args.candidate)
    if baseline.get("schema") != candidate.get("schema"):
        raise SystemExit("bench_compare: schema mismatch: %s is %r, "
                         "%s is %r"
                         % (args.baseline, baseline.get("schema"),
                            args.candidate, candidate.get("schema")))

    if baseline.get("schema") == "slambench-kernel-bench":
        print("baseline : %s (%s, %s kernels)"
              % (args.baseline, baseline.get("git_describe", "?"),
                 len(baseline.get("kernels", []))))
        print("candidate: %s (%s, %s kernels)"
              % (args.candidate, candidate.get("git_describe", "?"),
                 len(candidate.get("kernels", []))))
        print()
        return compare_kernels(args, baseline, candidate)

    print("baseline : %s (%s, %s frames)"
          % (args.baseline, baseline.get("git_describe", "?"),
             baseline.get("run", {}).get("frames", "?")))
    print("candidate: %s (%s, %s frames)"
          % (args.candidate, candidate.get("git_describe", "?"),
             candidate.get("run", {}).get("frames", "?")))
    print()

    regressions = 0
    for section, key, option, label in GATES:
        base = metric(baseline, section, key)
        cand = metric(candidate, section, key)
        threshold = getattr(args, option)
        if base is None or cand is None:
            print("  %-16s missing in %s -- skipped"
                  % (label, "baseline" if base is None
                     else "candidate"))
            continue
        if base <= 0.0:
            print("  %-16s baseline %.6g, candidate %.6g "
                  "(zero baseline, informational)"
                  % (label, base, cand))
            continue
        delta = (cand - base) / base
        regressed = delta > threshold
        if regressed:
            regressions += 1
        print("  %-16s baseline %.6g -> candidate %.6g "
              "(%+.1f%%, limit +%.0f%%)%s"
              % (label, base, cand, delta * 100.0,
                 threshold * 100.0,
                 "  REGRESSION" if regressed else ""))

    if args.telemetry_overhead_pct is not None:
        label = "p50 frame time (telemetry overhead)"
        base = metric(baseline, "summary", "frame_wall_seconds_p50")
        cand = metric(candidate, "summary", "frame_wall_seconds_p50")
        threshold = args.telemetry_overhead_pct / 100.0
        if base is None or cand is None:
            print("  %-16s missing in %s -- skipped"
                  % (label, "baseline" if base is None
                     else "candidate"))
        elif base <= 0.0:
            print("  %-16s baseline %.6g, candidate %.6g "
                  "(zero baseline, informational)"
                  % (label, base, cand))
        else:
            delta = (cand - base) / base
            regressed = delta > threshold
            if regressed:
                regressions += 1
            print("  %-16s baseline %.6g -> candidate %.6g "
                  "(%+.2f%%, limit +%.2f%%)%s"
                  % (label, base, cand, delta * 100.0,
                     threshold * 100.0,
                     "  REGRESSION" if regressed else ""))

    if args.max_serve_p99_regress is not None:
        label = "serve frame p99"
        base = metric(baseline, "summary", "serve_frame_p99_seconds")
        cand = metric(candidate, "summary", "serve_frame_p99_seconds")
        threshold = args.max_serve_p99_regress
        if base is None or cand is None:
            # Non-serve report on either side: the gate does not
            # apply (lets one smoke harness compare both kinds).
            print("  %-16s missing in %s -- skipped"
                  % (label, "baseline" if base is None
                     else "candidate"))
        elif base <= 0.0:
            print("  %-16s baseline %.6g, candidate %.6g "
                  "(zero baseline, informational)"
                  % (label, base, cand))
        else:
            delta = (cand - base) / base
            regressed = delta > threshold
            if regressed:
                regressions += 1
            print("  %-16s baseline %.6g -> candidate %.6g "
                  "(%+.1f%%, limit +%.0f%%)%s"
                  % (label, base, cand, delta * 100.0,
                     threshold * 100.0,
                     "  REGRESSION" if regressed else ""))

    print()
    if regressions:
        print("%d regression(s) detected" % regressions)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
