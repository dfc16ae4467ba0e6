#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); the first run configures and compiles, later
runs only check that the build is up to date. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
A traced run (--trace 1) also writes its spans next to the build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gemm_cannon", "higher_order", "program_chain", "serve_mixed")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "Tensor.h")):
        sys.stderr.write("run.py: engine sources (src/) not found under %s\n" % ROOT)
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write("run.py: %s: %s\n" % (" ".join(cmd), err))
            return False
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's helpers")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")], timeout=170).returncode

    cmd = [os.path.join(out, "distal_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark timed out\n")
        return 124


if __name__ == "__main__":
    sys.exit(main())
