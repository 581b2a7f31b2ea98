#!/usr/bin/env python3
"""End-to-end performance ledger: every perfbench workload over several seeds.

Runs perfbench/run.py for each workload (dense, sparse, serve, dse) at
--trace 0 (end-to-end metrics) and --trace 1 (per-layer metrics), once
for each of seeds 1-5 at BENCHMARK.json's run_seconds, and writes
BENCH_e2e.json: one row per (workload, trace, metric) with the
median, quartiles and IQR over the seeds, the build type, the compiler
and the source revision. The workloads, seeds and seconds are fixed so
that every recorded ledger compares with the checked-in one. Run it
from the repository root on an otherwise idle host; it takes 40 runs
of run_seconds plus set-up (25-30 minutes):

    python3 scripts/bench_e2e.py

The revision is `git describe --always --dirty`; `src_tree` is the git
tree id of src/ as it was on disk, which equals `git rev-parse
<commit>:src` for the commit that holds those sources. A failed run,
a run whose outputs are not `correct`, or a run with failed operations
exits 1 and writes nothing.
"""

import argparse
import datetime
import glob
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "perfbench", "run.py")
LEDGER = os.path.join(ROOT, "BENCH_e2e.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("dense", "sparse", "serve", "dse")
SEEDS = (1, 2, 3, 4, 5)


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(1)


def git(*args, env=None):
    return subprocess.run(["git"] + list(args), cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def src_tree():
    """Git tree id of src/ as on disk, staged or not (a scratch index)."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def cmake_cache(key):
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(path) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def compiler():
    """'<id> <version>' of the compiler CMake found for the harness."""
    pattern = os.path.join(BUILD_DIR, "CMakeFiles", "*",
                           "CMakeCXXCompiler.cmake")
    for path in glob.glob(pattern):
        text = open(path).read()
        ident = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        version = re.search(
            r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if ident and version:
            return ident.group(1) + " " + version.group(1)
    return "unknown"


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUNNER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("run failed: " + " ".join(cmd[1:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail("run not correct or with failed operations: " +
             " ".join(cmd[1:]) + ": " + json.dumps(result))
    return result


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        seconds = json.load(spec)["run_seconds"]

    samples = {}  # (workload, trace, metric) -> (unit, [values])
    for workload in WORKLOADS:
        for trace in (0, 1):
            for seed in SEEDS:
                print("bench_e2e: %s --trace %d --seed %d" %
                      (workload, trace, seed), file=sys.stderr)
                result = run(workload, seed, seconds, trace)
                for name, metric in result["metrics"].items():
                    unit, values = samples.setdefault(
                        (workload, trace, name), (metric["unit"], []))
                    values.append(metric["value"])

    provenance = {
        "revision": git("describe", "--always", "--dirty"),
        "src_tree": src_tree(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
    }
    rows = []
    for (workload, trace, name), (unit, values) in samples.items():
        q1, q3 = percentile(values, 25), percentile(values, 75)
        row = {"workload": workload, "trace": trace, "metric": name,
               "unit": unit, "n": len(values),
               "median": percentile(values, 50), "q1": q1, "q3": q3,
               "iqr": q3 - q1, "values": values}
        row.update(provenance)
        rows.append(row)
    ledger = {
        "schema": "slambench.bench_e2e",
        "schema_version": 1,
        "created_utc": datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "seeds": list(SEEDS),
        "seconds": seconds,
        "rows": rows,
    }
    with open(LEDGER, "w") as out:
        json.dump(ledger, out, indent=1)
        out.write("\n")
    print("bench_e2e: wrote %d rows to %s" % (len(rows), LEDGER),
          file=sys.stderr)


if __name__ == "__main__":
    main()
