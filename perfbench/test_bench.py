#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Runs every workload at smoke size through perfbench/run.py (building the
driver first if needed) and checks that:
  * the untraced run prints every end-to-end metric of BENCHMARK.json,
    and the traced run every per-layer metric, each with its unit, and
    both pass their correctness checks;
  * a deliberately corrupted output (--corrupt) trips the workload's
    matching correctness check;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py fails without printing a result.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The check each workload's --corrupt damage must trip.
CORRUPT_CHECK = {
    "forecast_cycle": "forecast_cycle: posterior is not finite",
    "large_assim": "large_assim: posterior is not finite",
    "acoustic_uncertainty": "acoustic_uncertainty: TL outside",
    "service_stream": "service_stream: served digest differs",
}


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


class SmokeRun(unittest.TestCase):
    def check_metrics(self, out, declared):
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(out["metrics"][m["name"]]["value"],
                                  (int, float))

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                out = result(run(w, 0))
                self.check_metrics(out, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][m["name"]]["value"], 0)

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(result(run(w, 1)), SPEC["per_layer"])

    def test_corrupted_output_trips_the_matching_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, "--corrupt")
                self.assertFalse(result(proc)["correct"])
                self.assertIn("CHECK FAILED: " + CORRUPT_CHECK[w], proc.stderr)


class BareDirectory(unittest.TestCase):
    def test_run_fails_without_the_repository_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path)
            proc = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
