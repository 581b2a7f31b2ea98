#!/usr/bin/env python3
"""Validate a slambench kernel-bench report against its schema.

Usage: check_kernel_bench_schema.py REPORT.json

Checks the report produced by `bench_kernels --metrics-json` (schema
"slambench-kernel-bench", see docs/OBSERVABILITY.md):

  * required top-level keys, with the right JSON types;
  * schema name/version match this validator;
  * kernel_count equals the length of the kernels list, names are
    non-empty and (name, backend) pairs are unique (per-backend rows
    share a name and carry an optional "backend" string);
  * every kernel carries a "volume" field naming the TSDF volume
    backend it ran against ("dense" or "sparse"), and sparse rows'
    optional "volume_bytes" (resident footprint) is positive;
  * every kernel has positive iterations and positive per-iteration
    times;
  * derived fields reconcile: ns_per_item == 1e9 / items_per_second
    and gb_per_s == bytes_per_second / 1e9 (when present);
  * the optional roofline fields (--roofline runs) travel together,
    only on rows with bytes_per_second, and roofline_fraction equals
    bytes_per_second / roofline_bytes_per_second within 1e-9
    relative.

Exit status: 0 = valid, 1 = invalid, 2 = usage/parse error.
Stdlib only.
"""

import json
import sys

SCHEMA = "slambench-kernel-bench"
SCHEMA_VERSION = 1

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
        "git_describe": str,
        "build_type": str,
        "kernels": list,
        "kernel_count": int,
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

    kernels = report.get("kernels")
    count = report.get("kernel_count")
    if isinstance(kernels, list) and isinstance(count, int):
        require(len(kernels) == count,
                "kernel_count=%d but kernels has %d entries"
                % (count, len(kernels)))


def check_kernels(report):
    kernels = report.get("kernels")
    if not isinstance(kernels, list):
        return
    names = set()
    for i, entry in enumerate(kernels):
        where = "kernels[%d]" % i
        if not require(isinstance(entry, dict),
                       "%s should be an object" % where):
            continue
        name = entry.get("name")
        backend = entry.get("backend", "")
        require(isinstance(backend, str),
                "%s.backend should be a string" % where)
        if "backend" in entry:
            require(isinstance(backend, str) and backend,
                    "%s.backend should be non-empty when present"
                    % where)
        if require(isinstance(name, str) and name,
                   "%s.name should be a non-empty string" % where):
            key = (name, backend if isinstance(backend, str) else "")
            require(key not in names,
                    "%s duplicate kernel (name, backend) %r"
                    % (where, key))
            names.add(key)
            where = ("kernels[%r@%s]" % (name, backend)
                     if backend else "kernels[%r]" % name)

        volume = entry.get("volume")
        require(volume in ("dense", "sparse"),
                "%s.volume should be \"dense\" or \"sparse\", got %r"
                % (where, volume))
        if "volume_bytes" in entry:
            require(is_number(entry["volume_bytes"]) and
                    entry["volume_bytes"] > 0,
                    "%s.volume_bytes should be a positive number"
                    % where)

        iterations = entry.get("iterations")
        require(isinstance(iterations, int) and iterations > 0,
                "%s.iterations should be a positive int" % where)
        for key in ("real_ns_per_iter", "cpu_ns_per_iter"):
            value = entry.get(key)
            require(is_number(value) and value > 0,
                    "%s.%s should be a positive number"
                    % (where, key))

        # items_per_second and ns_per_item come as a pair and must
        # reconcile (same for the byte-rate pair); 0.1% absorbs the
        # %.9g round-trip through the JSON writer.
        has_ips = "items_per_second" in entry
        has_npi = "ns_per_item" in entry
        require(has_ips == has_npi,
                "%s has only one of items_per_second/ns_per_item"
                % where)
        if has_ips and has_npi:
            ips = entry["items_per_second"]
            npi = entry["ns_per_item"]
            if require(is_number(ips) and ips > 0 and
                       is_number(npi) and npi > 0,
                       "%s item rates should be positive numbers"
                       % where):
                require(abs(npi - 1e9 / ips) <= 1e-3 * npi,
                        "%s ns_per_item %g does not reconcile with "
                        "items_per_second %g" % (where, npi, ips))

        has_bps = "bytes_per_second" in entry
        has_gbs = "gb_per_s" in entry
        require(has_bps == has_gbs,
                "%s has only one of bytes_per_second/gb_per_s"
                % where)
        if has_bps and has_gbs:
            bps = entry["bytes_per_second"]
            gbs = entry["gb_per_s"]
            if require(is_number(bps) and bps > 0 and
                       is_number(gbs) and gbs > 0,
                       "%s byte rates should be positive numbers"
                       % where):
                require(abs(gbs - bps / 1e9) <= 1e-3 * gbs,
                        "%s gb_per_s %g does not reconcile with "
                        "bytes_per_second %g" % (where, gbs, bps))

        check_row_roofline(where, entry)


def check_row_roofline(where, entry):
    """Validate one row's optional roofline pair."""
    has_roof = "roofline_bytes_per_second" in entry
    has_frac = "roofline_fraction" in entry
    require(has_roof == has_frac,
            "%s has only one of roofline_fraction/"
            "roofline_bytes_per_second" % where)
    if not (has_roof and has_frac):
        return
    if not require("bytes_per_second" in entry,
                   "%s has roofline fields but no bytes_per_second"
                   % where):
        return
    bps = entry["bytes_per_second"]
    roof = entry["roofline_bytes_per_second"]
    frac = entry["roofline_fraction"]
    if not require(is_number(roof) and roof > 0 and is_number(frac),
                   "%s roofline fields should be numbers with a "
                   "positive bandwidth" % where):
        return
    if is_number(bps):
        expect = bps / roof
        require(abs(frac - expect) <= 1e-9 * abs(expect),
                "%s roofline_fraction %r does not equal "
                "bytes_per_second/roofline_bytes_per_second %r"
                % (where, frac, expect))


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(),
              file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print("check_kernel_bench_schema: cannot parse %s: %s"
              % (sys.argv[1], exc), file=sys.stderr)
        return 2

    check_top_level(report)
    check_kernels(report)

    if errors:
        for message in errors:
            print("check_kernel_bench_schema: %s" % message,
                  file=sys.stderr)
        print("%s: INVALID (%d problem(s))"
              % (sys.argv[1], len(errors)))
        return 1
    print("%s: OK" % sys.argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
