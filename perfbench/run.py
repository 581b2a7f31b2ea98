#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense|sparse|serve|dse \\
        --seed N --seconds S --trace 0|1

The harness (perfbench/harness.cpp) is compiled together with the
library sources under src/ into .bench_build/perfbench (Release). The
first run builds it; later runs only check that it is up to date.

Workloads (sizes are the repository's default invocations):
    dense   slambench_cli's default SLAM frame loop, dense TSDF volume,
            pooled kernels; unit = frame.
    sparse  The same loop on the hashed voxel-block volume; unit = frame.
    serve   slambench_serve's default 8 tenants, ticks over a shared pool;
            unit = tick.
    dse     dse_exploration's default active-learning DSE on a pool;
            unit = exploration.

--seed seeds the synthetic sensor noise. --seconds is how long the
measured loop runs. --trace 0 reports the end-to-end metrics
(latency_p50_ms, latency_p90_ms, throughput_per_s, setup_s); --trace 1
runs the loop with the library's span tracer on and reports per-layer
metrics instead. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Any build failure, harness failure or malformed result exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("dense", "sparse", "serve", "dse")
# Wall-clock allowance beyond --seconds for set-up and output checks;
# with the build limits below a first run stays within 15 minutes.
HARNESS_SLACK_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    """Run cmd with output to log_path; fail with the log tail on error."""
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        try:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT,
                                  env=env).returncode
        except subprocess.TimeoutExpired:
            code = None
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD_DIR, "configure.log"), 120)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target",
                "perfbench_harness", "-j", jobs],
               os.path.join(BUILD_DIR, "build.log"), 600)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + HARNESS_SLACK_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
