#!/usr/bin/env python3
"""Checks tools/check_perf_regression.py's verdicts on synthetic run files.

    python3 tests/perf_gate_test.py path/to/check_perf_regression.py

The gate must pass a row at 1.9x its baseline, fail one at 2.1x, fail when a
baseline row is missing from the run, and fail when a row has no layer tag.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

GATE = None  # set from argv in __main__

BASELINE = {
    "machine": {"cpu": "synthetic", "nproc": 4, "compiler": "c++",
                "build_type": "RelWithDebInfo", "commit": "0000000"},
    "repetitions": 5,
    "max_regression": 2.0,
    "rows": {
        "BM_EventQueueScheduleRun": {"layer": "event_core", "ns": 1000.0},
        "BM_BuildClos/512": {"layer": "setup", "ns": 2000000.0},
        "BM_ShardBarrier/real_time": {"layer": "shard", "ns": 500000.0},
    },
}


def run_report(times):
    """An aggregates-only benchmark JSON with a median row per benchmark."""
    rows = []
    for name, (value, unit) in times.items():
        for agg, v in (("mean", value * 5), ("median", value)):
            rows.append({"name": name + "_" + agg, "run_name": name,
                         "run_type": "aggregate", "aggregate_name": agg,
                         "real_time": v, "cpu_time": v, "time_unit": unit})
    return {"context": {}, "benchmarks": rows}


class PerfGate(unittest.TestCase):
    def gate(self, times, baseline=BASELINE):
        with tempfile.TemporaryDirectory() as d:
            run_path = os.path.join(d, "run.json")
            base_path = os.path.join(d, "BENCH_MICRO.json")
            with open(run_path, "w") as f:
                json.dump(run_report(times), f)
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            return subprocess.run([sys.executable, GATE, run_path, base_path],
                                  capture_output=True, text=True)

    def times(self, factor):
        # BM_BuildClos runs in microseconds; the gate converts to ns.
        return {"BM_EventQueueScheduleRun": (1000.0 * factor, "ns"),
                "BM_BuildClos/512": (2000.0 * factor, "us"),
                "BM_ShardBarrier/real_time": (500000.0, "ns")}

    def test_passes_at_1_9x(self):
        r = self.gate(self.times(1.9))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("(1.90x, limit 2.0x)", r.stdout)

    def test_fails_at_2_1x(self):
        r = self.gate(self.times(2.1))
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("BM_BuildClos/512: 2.10x over baseline", r.stderr)

    def test_fails_on_a_missing_row(self):
        times = self.times(1.0)
        del times["BM_ShardBarrier/real_time"]
        r = self.gate(times)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("BM_ShardBarrier/real_time: missing", r.stderr)

    def test_fails_on_a_row_without_a_layer(self):
        baseline = json.loads(json.dumps(BASELINE))
        del baseline["rows"]["BM_BuildClos/512"]["layer"]
        r = self.gate(self.times(1.0), baseline)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("BM_BuildClos/512: layer tag None", r.stderr)

    def test_filter_selects_exactly_the_rows(self):
        sys.path.insert(0, os.path.dirname(os.path.abspath(GATE)))
        from check_perf_regression import benchmark_filter
        pattern = re.compile(benchmark_filter(BASELINE["rows"]))
        for name in BASELINE["rows"]:
            self.assertTrue(pattern.search(name), name)
        for other in ("BM_BuildClos/20", "BM_EventQueueScheduleRunX",
                      "BM_ShardBarrier"):
            self.assertFalse(pattern.search(other), other)


if __name__ == "__main__":
    GATE = sys.argv.pop(1)
    unittest.main()
