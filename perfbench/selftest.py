#!/usr/bin/env python3
"""The benchmark's own tests: a short smoke run of every workload, a traced
run, every deliberate corruption of ``oracles.CORRUPTIONS``, a run without
the program's sources, and a prediction in ``layers.py`` for every per-layer
metric of ``BENCHMARK.json``.

Run from the repository root: ``python3 perfbench/selftest.py`` (about three
minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT, script: list[str] = RUN):
    proc = subprocess.run([*script, *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


class BenchmarkSpec(unittest.TestCase):
    def test_every_workload_is_built_and_every_layer_metric_has_a_prediction(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.BUILDERS))
        for m in SPEC["per_layer"]:
            self.assertIsNotNone(layers.prediction(m["name"]), m["name"])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        proc, result = run("--workload", "all", "--seed", "3", "--seconds", "1")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for w in workloads.BUILDERS:
            for m in SPEC["end_to_end"]:
                metric = result["metrics"][f"{w}.{m['name']}"]
                self.assertEqual(metric["unit"], m["unit"])
                self.assertGreater(metric["value"], 0, f"{w}.{m['name']}")

    def test_traced_run_prints_every_per_layer_metric(self):
        proc, result = run("--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC["per_layer"]])
        self.assertGreater(result["metrics"]["verification.quadrature_agreement.busy_s"]["value"], 0)
        self.assertTrue((ROOT / ".perfbench" / "trace-verify-seed3.json").is_file())


class NegativeRuns(unittest.TestCase):
    def test_a_corrupted_output_makes_the_run_incorrect(self):
        for w, targets in oracles.CORRUPTIONS.items():
            for target in targets:
                with self.subTest(workload=w, target=target):
                    proc, result = run("--workload", w, "--seed", "3", "--seconds", "1", "--corrupt", target)
                    self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                    self.assertFalse(result["correct"])
                    self.assertIn("# PROBLEM", proc.stdout)

    def test_without_the_sources_the_run_fails_without_a_result(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run(
                "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, script=[sys.executable, "perfbench/run.py"],
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
