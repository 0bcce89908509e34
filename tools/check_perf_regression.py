#!/usr/bin/env python3
"""Microbench perf gate: compare a perf_microbench run against BENCH_MICRO.json.

Usage (from the build directory):

    # Run the baseline's rows and gate them (what CI does):
    python3 ../tools/check_perf_regression.py \\
        --bench ./bench/perf_microbench perf_run.json ../BENCH_MICRO.json
    # Gate an existing aggregates-only benchmark JSON:
    python3 ../tools/check_perf_regression.py perf_run.json ../BENCH_MICRO.json
    # Re-capture every row and the machine descriptor:
    python3 ../tools/check_perf_regression.py --bench ./bench/perf_microbench \\
        --capture perf_run.json ../BENCH_MICRO.json

With --bench the benchmark runs once, restricted by a --benchmark_filter
built from the baseline's row names, so a new row cannot miss the filter,
and repeated as often as the baseline was captured ("repetitions": the
gate compares medians of as many runs); its JSON goes to RUN_JSON. Every
row carries a layer tag (one of LAYERS).

Exits non-zero if any row is slower than its baseline * max_regression, is
missing from the run, or has no known layer tag. The factor (2.0) is loose on
purpose: shared runners are noisy, and the gate exists to catch a
reintroduced O(log n)-with-hashing scheduler or an allocation storm, not a
few percent of drift. Benchmarks in the run but not in the baseline are
ignored.
"""

import argparse
import json
import os
import re
import subprocess
import sys

LAYERS = ("event_core", "switch", "fabric", "nic", "host", "shard", "hybrid",
          "setup")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def medians(report):
    """run_name -> median real_time in ns from a benchmark JSON report."""
    out = {}
    for b in report.get("benchmarks", []):
        # With repetitions, gate on the median aggregate; a plain run (no
        # aggregates) falls back to the single measurement.
        if b.get("aggregate_name", "median") == "median":
            ns = float(b["real_time"]) * NS_PER_UNIT[b.get("time_unit", "ns")]
            out[b.get("run_name", b.get("name"))] = ns
    return out


def benchmark_filter(rows):
    """An anchored regex matching exactly the baseline's row names."""
    return "^(" + "|".join(re.escape(name) for name in sorted(rows)) + ")$"


def run_bench(binary, rows, repetitions, out_path):
    cmd = [binary, "--benchmark_filter=" + benchmark_filter(rows),
           "--benchmark_repetitions=%d" % repetitions,
           "--benchmark_report_aggregates_only=true",
           "--benchmark_out=" + out_path, "--benchmark_out_format=json"]
    if subprocess.run(cmd).returncode != 0:
        sys.exit("perf gate: %s failed" % binary)


def machine_descriptor(binary):
    """CPU, core count, compiler, build type and commit of a capture."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = {}
    d = os.path.dirname(os.path.abspath(binary))
    while d != os.path.dirname(d):
        path = os.path.join(d, "CMakeCache.txt")
        if os.path.exists(path):
            with open(path) as f:
                for line in f:
                    key, _, value = line.strip().partition("=")
                    cache[key.split(":")[0]] = value
            break
        d = os.path.dirname(d)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    compiler = subprocess.run([cxx, "--version"], capture_output=True,
                              text=True).stdout.splitlines()[0]
    git = ["git", "-C", cache.get("CMAKE_HOME_DIRECTORY", ".")]
    commit = subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    if subprocess.run(git + ["status", "--porcelain", "--", "src", "bench"],
                      capture_output=True, text=True).stdout:
        commit += "+uncommitted"
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
            "commit": commit}


def check(run, doc):
    """Prints one verdict line per row; returns the list of failures."""
    limit = float(doc.get("max_regression", 2.0))
    failures = []
    for name, row in sorted(doc["rows"].items()):
        if row.get("layer") not in LAYERS:
            failures.append(f"{name}: layer tag {row.get('layer')!r} is not "
                            f"one of {', '.join(LAYERS)}")
            continue
        if name not in run:
            failures.append(f"{name}: missing from the benchmark run")
            continue
        ratio = run[name] / row["ns"]
        verdict = "FAIL" if ratio > limit else "ok"
        print(f"{verdict:4} {row['layer']:10} {name}: {run[name]:.1f} ns vs "
              f"baseline {row['ns']:.1f} ns ({ratio:.2f}x, limit {limit:.1f}x)")
        if ratio > limit:
            failures.append(f"{name}: {ratio:.2f}x over baseline")
    return failures


def main():
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    p.add_argument("run_json", help="benchmark JSON (written with --bench)")
    p.add_argument("baseline_json", help="BENCH_MICRO.json")
    p.add_argument("--bench", help="perf_microbench binary to run first")
    p.add_argument("--capture", action="store_true",
                   help="write the run's medians and this machine into the "
                        "baseline instead of gating (needs --bench)")
    args = p.parse_args()
    if args.capture and not args.bench:
        p.error("--capture needs --bench")

    with open(args.baseline_json) as f:
        doc = json.load(f)
    if args.bench:
        run_bench(args.bench, doc["rows"], doc["repetitions"], args.run_json)
    with open(args.run_json) as f:
        run = medians(json.load(f))

    if args.capture:
        missing = sorted(set(doc["rows"]) - set(run))
        if missing:
            sys.exit("perf gate: rows missing from the run: " +
                     ", ".join(missing))
        for name, row in doc["rows"].items():
            row["ns"] = round(run[name], 1)
        doc["machine"] = machine_descriptor(args.bench)
        with open(args.baseline_json, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"captured {len(run)} rows into {args.baseline_json}")
        return

    failures = check(run, doc)
    if failures:
        print("\nperf gate FAILED:", "; ".join(failures), file=sys.stderr)
        sys.exit(1)
    print("\nperf gate passed")


if __name__ == "__main__":
    main()
