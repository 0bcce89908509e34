#!/usr/bin/env python3
"""Simulator benchmark: builds the program from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fabric --seed 1 --seconds 10 --trace 0

The program is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
stdout is the program's JSON result. Exits non-zero, printing no result, if
the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fabric", "hostpath", "sparse")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_sim")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    program = build()
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: program timed out")
    if run.returncode != 0:
        sys.exit("perfbench: program exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        sys.exit("perfbench: malformed program result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
