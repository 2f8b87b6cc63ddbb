#!/usr/bin/env python3
"""Tests of the benchmark itself: seeded inputs are deterministic, the
metric names agree with BENCHMARK.json, and a run prints a well-formed,
correct result.

    python3 perfbench/test_perfbench.py
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BINARY = None


def perfbench(*args):
    out = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                         check=True, timeout=170)
    return out.stdout.strip().splitlines()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_field_archive_and_schedule(self):
        first = json.loads(perfbench("--hashes", "--seed", "7")[-1])
        again = json.loads(perfbench("--hashes", "--seed", "7")[-1])
        self.assertEqual(first, again)
        self.assertEqual(set(first), {"field_256", "archive_256", "field_serve",
                                      "archive_serve", "schedule"})

    def test_other_seed_changes_every_input(self):
        a = json.loads(perfbench("--hashes", "--seed", "7")[-1])
        b = json.loads(perfbench("--hashes", "--seed", "8")[-1])
        for key in a:
            self.assertNotEqual(a[key], b[key], key)


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        listed = json.loads(perfbench("--list-metrics")[-1])
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for group in ("end_to_end", "per_layer"):
            self.assertEqual([[m["name"], m["unit"]] for m in spec[group]],
                             listed[group], group)


class ResultLine(unittest.TestCase):
    def check(self, trace, group):
        workdir = run.build_dir() / "data"
        workdir.mkdir(parents=True, exist_ok=True)
        lines = perfbench("--workload", "serve", "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--workdir", str(workdir))
        report = json.loads(lines[0])["report"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result), run.RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[group]])
        self.assertEqual(report["seed"], 3)
        self.assertIn("failed_frac", report["named"])

    def test_untraced_run_prints_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
