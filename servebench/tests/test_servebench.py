#!/usr/bin/env python3
"""Tests of the serving benchmark itself.

    python3 servebench/tests/test_servebench.py

Builds the benchmark and its self-test binary (as run.py does), runs the C++
self-tests (seeded input determinism, planted ledger mismatch, planted
one-bit parameter difference), and checks that the benchmark's metric table —
the only source of the names and units it prints — matches BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.dont_write_bytecode = True  # keep the checkout clean
sys.path.insert(0, BENCH)

import run  # noqa: E402  (servebench/run.py)


class ServebenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(("servebench", "servebench_selftest"))

    def test_selftests(self):
        proc = subprocess.run([os.path.join(self.out, "servebench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_metric_names_and_units_match_benchmark_json(self):
        proc = subprocess.run([os.path.join(self.out, "servebench"),
                               "--list-metrics"],
                              capture_output=True, text=True, check=True)
        printed = {}
        for line in proc.stdout.splitlines():
            name, unit, kind = line.split()
            printed[name] = (unit, kind)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = {}
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                declared[m["name"]] = (m["unit"], kind)
        self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()
