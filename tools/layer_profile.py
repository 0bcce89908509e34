#!/usr/bin/env python3
"""Where a perfbench workload's host time goes, layer by layer.

Run from the repository root:

    python3 tools/layer_profile.py --workload fabric --seconds 10

Builds perfbench with -g (still Release) into its own directory,
$CARGO_TARGET_DIR/layer_profile (default .bench_build/layer_profile), runs
it once under tools/layer_sampler.c (an LD_PRELOAD library that samples the
process's own CPU time with setitimer(ITIMER_PROF) and dumps the sampled
stacks plus /proc/self/maps at exit), and symbolizes the stacks with
`addr2line -a -f -i`. The simulator gains no code, hook or knob.

Each sample is charged to the innermost (inlined) frame under src/ whose
module is a layer (MODULES below). Helper code is charged to the layer that
called it: src/common/ except the RNG (so TransmissionTime goes to the link
or the switch), the packet queues' ring buffer and pool, the packet and
node headers, stats/ and workload/distributions. Samples inside perfbench's calibration
kernels are dropped. The rest split into phases by
their stack: the timed engine run (sim_ms), the timed set-up (topology,
workload start; setup_s), and untimed work (checks, teardown). Each layer's
ms per trial is its share of a phase times that phase's median per trial
from the same run (share x sim_ms, share x setup_s).
"""
import argparse
import array
import collections
import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
WORKLOADS = ("fabric", "hostpath", "sparse")

# Source-path prefix under src/ -> layer. Longest prefix wins; a prefix
# mapped to None is helper code, charged to the next frame out.
MODULES = {
    "sim/": "event core",
    "sim/ring_buffer": None,
    "sim/queue_pool": None,
    "net/link": "link",
    "net/switch": "switch",
    "core/red_ecn": "switch",
    "nic/": "NIC/CC",
    "cc/": "NIC/CC",
    "core/": "NIC/CC",
    "host/": "host",
    "workload/": "workload",
    "hybrid/": "hybrid",
    "telemetry/": "telemetry",
    "common/rng": "RNG",
    "net/network": "setup",
    "net/topology": "setup",
    "net/shard": "shard",
    "fault/": "fault",
    "runner/": "runner",
    "common/": None,
    "net/packet": None,
    "net/node": None,
    "stats/": None,
    "workload/distributions": None,
}
# Phase and calibration markers: (function name, source file). addr2line
# names an inlined frame by its bare name, so markers match the unqualified
# name plus the file that defines it.
CALIBRATION = {("KernelSeconds", "perfbench/bench.cc"),
               ("CalibrationSeconds", "perfbench/bench.cc")}
# Network::Run tail-calls EventQueue::RunUntil, so its own frame is often
# gone from the stack; RunUntil marks the engine run instead.
RUN = {("Run", "src/net/network.cc"), ("Run", "src/hybrid/engine.cc"),
       ("RunUntil", "src/sim/event_queue.h")}
SETUP = {("BuildClos", "src/net/topology.cc"),
         ("Network", "src/net/network.cc"),
         ("CreateWorkloadPattern", "src/workload/workload.cc"),
         ("Begin", "src/workload/sim_host.cc"),
         ("Begin", "src/workload/verbs_host.cc"),
         ("HybridEngine", "src/hybrid/engine.cc")}

def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_CXX_FLAGS=-g"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    sampler = os.path.join(build_dir, "layer_sampler.so")
    steps.append(["cc", "-O2", "-shared", "-fPIC", "-o", sampler,
                  os.path.join(ROOT, "tools", "layer_sampler.c")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("layer_profile: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_sim"), sampler


def read_stacks(path):
    words = array.array("Q")
    with open(path, "rb") as f:
        words.frombytes(f.read())
    stacks, i = [], 0
    while i < len(words):
        n = words[i]
        stacks.append(words[i + 1:i + 1 + n].tolist())
        i += 1 + n
    return stacks


def load_bias(maps_path, binary):
    """Runtime address - link-time address for the binary's mappings."""
    real = os.path.realpath(binary)
    ranges, base = [], None
    with open(maps_path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or parts[5] != real:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            ranges.append((lo, hi))
            if int(parts[2], 16) == 0 and base is None:
                base = lo
    with open(real, "rb") as f:
        pie = f.read(18)[16] == 3  # e_type ET_DYN
    return ranges, (base if pie else 0)


def symbolize(binary, addrs):
    """addr -> [(function, file)] innermost inlined frame first."""
    addrs = sorted(addrs)
    out = subprocess.run(
        ["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
        input="".join("%x\n" % a for a in addrs), capture_output=True,
        text=True, check=True).stdout.splitlines()
    frames, cur = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            frames[cur] = []
            i += 1
            continue
        fn, loc = out[i], out[i + 1] if i + 1 < len(out) else "??:0"
        frames[cur].append((fn, os.path.normpath(loc.rsplit(":", 1)[0])))
        i += 2
    return frames


def bare_name(fn):
    """'void ns::Class::Fn<T>(args) const' -> 'Fn'."""
    head = fn.replace("(anonymous namespace)", "").split("(")[0].split("<")[0]
    words = head.split("::")[-1].split()
    return words[-1] if words else ""


def marked(chain, markers):
    return any((bare_name(fn), path[len(ROOT) + 1:]) in markers
               for fn, path in chain if path.startswith(ROOT))


def layer_of(path):
    if not path.startswith(SRC):
        return None, False
    rel = path[len(SRC):]
    best = max((p for p in MODULES if rel.startswith(p)), key=len,
               default=None)
    if best is None:
        return None, False
    return MODULES[best], True


def charge(chain):
    """(layer or None, src file) for one sample's symbolized frame chain."""
    first_src = None
    for _, path in chain:
        layer, under_src = layer_of(path)
        if under_src and first_src is None:
            first_src = path[len(SRC):]
        if layer is not None:
            return layer, path[len(SRC):]
    return None, first_src


def main():
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seconds", required=True, type=float)
    args = p.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "layer_profile")
    binary, sampler = build(build_dir)
    prefix = os.path.join(build_dir, "samples-" + args.workload)
    env = dict(os.environ, LD_PRELOAD=os.path.abspath(sampler),
               LAYER_SAMPLER_OUT=prefix)
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", "1",
         "--seconds", str(args.seconds), "--trace", "0"],
        env=env, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit("layer_profile: perfbench exited with %d" % run.returncode)
    cpu_s = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - cpu_before
    result = json.loads(run.stdout.strip().splitlines()[-1])
    metric = {k: m["value"] for k, m in result["metrics"].items()}

    stacks = read_stacks(prefix + ".stacks")
    ranges, bias = load_bias(prefix + ".maps", binary)

    def in_binary(a):
        return any(lo <= a < hi for lo, hi in ranges)

    # The interrupted PC is exact; a return address is symbolized one byte
    # back, inside its call instruction.
    samples = [[a if i == 0 else a - 1 for i, a in enumerate(s)
                if in_binary(a)] for s in stacks]
    frames = symbolize(binary, {a - bias for s in samples for a in s})

    phases = {"run": collections.Counter(), "setup": collections.Counter(),
              "untimed": collections.Counter()}
    files = {k: collections.Counter() for k in phases}
    calibration = 0
    for s in samples:
        chain = [f for a in s for f in frames.get(a - bias, [])]
        if marked(chain, CALIBRATION):
            calibration += 1
            continue
        phase = ("run" if marked(chain, RUN) else
                 "setup" if marked(chain, SETUP) else "untimed")
        layer, path = charge(chain)
        phases[phase][layer or "unattributed"] += 1
        files[phase][path or "(outside src/)"] += 1

    simulation = sum(sum(c.values()) for c in phases.values())
    named = simulation - sum(c["unattributed"] for c in phases.values())
    print(f"{args.workload}: {len(stacks)} samples, one per "
          f"{1e3 * cpu_s / max(1, len(stacks)):.1f} ms of user CPU time; "
          f"{calibration} in calibration kernels (dropped); "
          f"{named} of {simulation} simulation samples "
          f"({100.0 * named / max(1, simulation):.1f}%) charged to layers")
    per_trial = {"run": ("sim_ms", metric["sim_ms"]),
                 "setup": ("setup_s", metric["setup_s"] * 1e3),
                 "untimed": (None, None)}
    for phase, counts in phases.items():
        total = sum(counts.values())
        if total == 0:
            continue
        label, ms = per_trial[phase]
        head = f"\n{phase} phase: {total} samples"
        print(head + (f", {label} {ms:.3f} ms per trial" if label else ""))
        print(f"  {'layer':14} {'share':>7} {'ms/trial':>9}")
        for layer, n in counts.most_common():
            share = n / total
            cost = f"{share * ms:9.3f}" if ms is not None else f"{'-':>9}"
            print(f"  {layer:14} {100 * share:6.1f}% {cost}")
        print("  top source files:")
        for path, n in files[phase].most_common(8):
            print(f"    {100.0 * n / total:5.1f}%  {path}")


if __name__ == "__main__":
    main()
