#!/usr/bin/env python3
"""Interleaved pre/post runs of the simulator benchmark (perfbench/run.py).

Usage, from the repository root:

    python3 tools/perfbench_ab.py --base HEAD~1 --change HEAD \\
        --pairs 10 --seconds 10 [--workloads fabric,sparse] [--trace 1] \\
        [--cxxflags "-falign-functions=64 -falign-loops=32"]

Each side is a git revision, or "." for the working tree as it is. A
revision is exported with `git archive` into a checkout under --workdir,
and builds perfbench into a CARGO_TARGET_DIR; both are named after the
revision's commit SHA (the working tree's build dir is `target-worktree`).
perfbench/run.py configures a build dir only once, so a dir named after its
side ("base", "change") would quietly keep building whatever checkout it
was first configured against. The tool then runs --pairs alternating pairs
per workload (base first on even pairs, change first on odd ones, to cancel
slow machine drift), each pair on a fresh seed (--seed-base + pair index;
the default base is drawn from the clock and printed, so seeds used while
developing a change are not reused by accident).

For every metric it prints each side's median and quartiles, the change in
the median, and how many pairs the change won. End-to-end metrics carry
their bound from BENCHMARK.json; a metric is "unresolved" when the base's
interquartile range exceeds that bound (relative to its median), since a
move inside the noise cannot be told apart, unless every change run beat
every base run. The verdict adds "claim holds" when the change won at least
9 pairs in 10 and moved the median by more than the base's interquartile
range. With --trace 1 it reports the per-layer metrics instead (counters
such as `events` should match exactly when the simulation is unchanged).

--cxxflags FLAGS builds both sides with extra compiler flags, exported as
CXXFLAGS when a build dir is first configured; the build dir's name then
carries a hash of the flags (`target-<sha>-cxx<hash>`), so a flagged and
an unflagged build never share a dir. Its use is telling a code-layout
shift from a code change: function and loop placement alone moves a hot
loop by a few percent. On a shared 4-vCPU VM, a change whose only edits
on the `fabric` path were one extra load per ECMP hop and a counter on the
event core's cold heap-insert branch (inlined at every schedule call site)
read +5.9% `fabric` sim_ms at default flags (1/10 pairs won) and +1.9%
(4/8) with --cxxflags "-falign-functions=64 -falign-loops=32" on both
sides; `hostpath` read +1.0% and -2.7%. One unused function added to
src/net/network.cc, and nothing else, read +1.5% (3/8) and -2.2% (6/8) on
`fabric`. A move that survives aligned builds is
the code; one that shrinks into that +/-3% band is layout or noise.

The tool only reads BENCHMARK.json and perfbench/; it changes nothing
there. --json PATH saves every run's raw result.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def checkout(rev, workdir):
    """Returns (directory holding `rev`'s files, build key): the commit SHA,
    or "worktree" for "." (the working tree itself)."""
    if rev == ".":
        return ROOT, "worktree"
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         stdout=subprocess.PIPE).stdout.strip()
    path = os.path.join(workdir, "src-" + sha)
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("perfbench_ab: git archive %s failed" % rev)
        os.rename(tmp, path)
    return path, sha


def run_once(side, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    if side["cxxflags"]:
        env["CXXFLAGS"] = side["cxxflags"]
    run = subprocess.run(cmd, cwd=side["dir"], env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if run.returncode != 0:
        log(run.stderr)
        sys.exit("perfbench_ab: %s run failed (%s, seed %d)" %
                 (side["name"], workload, seed))
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        log("perfbench_ab: warning: %s %s seed %d: correct=%s failed=%d" %
            (side["name"], workload, seed, result["correct"],
             result["failed"]))
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, metrics, runs, pairs):
    """Prints one workload's table. metrics: name -> (better, bound|None)."""
    print("\n== %s (%d pairs)" % (workload, pairs))
    print("%-20s %26s %26s %8s %6s  %s" %
          ("metric", "base median [q1, q3]", "change median [q1, q3]",
           "delta", "wins", "verdict"))
    for name, (better, bound) in metrics.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        sign = -1 if better == "lower" else 1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        delta = (cmed - bmed) / bmed if bmed else 0.0
        iqr = bq3 - bq1
        # Every change run better than every base run settles a move even
        # inside the noise.
        all_better = all(sign * (c - b) > 0 for c in change for b in base)
        verdict = []
        if bound is not None:
            if bmed and iqr / abs(bmed) > bound and not all_better:
                verdict.append("unresolved (base IQR %.0f%% > bound %.0f%%)" %
                               (100 * iqr / abs(bmed), 100 * bound))
            elif sign * delta < -bound:
                verdict.append("REGRESSED beyond bound %.0f%%" % (100 * bound))
            else:
                verdict.append("within bound")
        if wins >= 0.9 * pairs and sign * (cmed - bmed) > iqr:
            verdict.append("claim holds")
        print("%-20s %26s %26s %+7.1f%% %3d/%-2d  %s" %
              (name, "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
               "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), 100 * delta, wins,
               pairs, "; ".join(verdict)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD~1",
                   help="base revision (default HEAD~1)")
    p.add_argument("--change", default="HEAD",
                   help='changed revision, or "." for the working tree')
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10,
                   help="run.py --seconds per run")
    p.add_argument("--workloads", default="",
                   help="comma-separated; default all in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed-base", type=int, default=None)
    p.add_argument("--workdir", default=os.path.join(ROOT, ".bench_ab"),
                   help="checkouts and build trees (default .bench_ab)")
    p.add_argument("--json", default="", help="write raw results here")
    p.add_argument("--cxxflags", default="",
                   help="extra compiler flags for both sides' builds "
                   "(write --cxxflags=\"-O3\" for a single flag)")
    args = p.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        p.error("--pairs and --seconds must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            p.error("unknown workload %r (BENCHMARK.json has %s)" % (w, known))
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in bench["end_to_end"]}
    if args.trace:
        metrics = {m["name"]: (m["better"], None) for m in bench["per_layer"]}
    seed_base = args.seed_base
    if seed_base is None:
        seed_base = int(time.time()) % 1000000 * 100
    log("perfbench_ab: seeds %d..%d" % (seed_base, seed_base + args.pairs - 1))

    os.makedirs(args.workdir, exist_ok=True)
    sides = {}
    for name, rev in (("base", args.base), ("change", args.change)):
        path, key = checkout(rev, args.workdir)
        if args.cxxflags:
            key += "-cxx" + hashlib.sha1(
                args.cxxflags.encode()).hexdigest()[:10]
        sides[name] = {
            "name": name,
            "dir": path,
            "target": os.path.join(args.workdir, "target-" + key),
            "cxxflags": args.cxxflags,
        }
        log("perfbench_ab: building %s (%s) in %s" %
            (name, rev, sides[name]["target"]))
        run_once(sides[name], workloads[0], 0, 1, 0)  # builds, then runs 1 s

    raw = {}
    for w in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = seed_base + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                runs[name].append(run_once(sides[name], w, seed, args.seconds,
                                           args.trace))
            log("perfbench_ab: %s pair %d/%d done" % (w, i + 1, args.pairs))
        raw[w] = runs
        report(w, metrics, runs, args.pairs)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"base": args.base, "change": args.change,
                       "cxxflags": args.cxxflags,
                       "seed_base": seed_base, "seconds": args.seconds,
                       "trace": args.trace, "runs": raw}, f, indent=1)


if __name__ == "__main__":
    main()
