"""Tests of the perfbench benchmark itself.

Run from the repository root (the first run builds the program):

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs in --smoke mode (tiny inputs, one repetition), so the
whole file takes well under a minute once the build is done.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("study", "site", "archive")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


SPEC = load_json(os.path.join(ROOT, "BENCHMARK.json"))


def run_bench(*args):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload, trace, *extra):
    code, lines = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", str(trace), "--smoke", *extra)
    if code != 0:
        raise AssertionError(f"{workload} smoke run exited {code}: {lines[-5:]}")
    return lines, json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertIn(SPEC["run_seconds"], range(1, 61))
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in SPEC["end_to_end"])}])

    def test_every_layer_metric_has_a_prediction(self):
        predictions = load_json(os.path.join(PERFBENCH, "predictions.json"))
        covered = {m for layer in predictions["layers"] for m in layer["metrics"]}
        self.assertEqual(covered, {m["name"] for m in SPEC["per_layer"]})


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, lines, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        printed = {}
        for line in lines:
            match = re.match(r"^metric (\S+) = (\S+) (\S+)$", line)
            if match:
                printed[match.group(1)] = match.group(3)
        for m in declared:
            self.assertRegex(m["name"], NAME)
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = smoke(workload, 0)
                self.assertTrue(result["correct"], lines)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(lines, result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertTrue(any(line.startswith("host: {") for line in lines))

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = smoke(workload, 1)
                self.assertTrue(result["correct"], lines)
                self.check_metrics(lines, result, SPEC["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(m["failed_ratio"], 0)
                if workload == "archive":
                    self.assertEqual(m["telemetry.tick_ms"], 0)
                    self.assertGreater(m["storage.scan_ms"], 0)
                    self.assertGreater(m["query_p50_ms"], 0)
                else:
                    self.assertGreater(m["telemetry.samples"], 0)
                if workload == "site":
                    self.assertGreater(m["stream.rows_applied"], 0)
                    self.assertGreater(m["recover_s"], 0)

    def test_one_command_runs_every_workload(self):
        code, lines = run_bench("--workload", "all", "--seed", "3", "--seconds", "1",
                                "--trace", "0", "--smoke")
        self.assertEqual(code, 0)
        results = [json.loads(line) for line in lines if line.startswith("{")]
        self.assertEqual(len(results), len(WORKLOADS))
        for result in results:
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_injected_failure_shows_in_failed_ratio(self):
        lines, result = smoke("study", 1, "--inject-failure")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        ratio = result["metrics"]["failed_ratio"]["value"]
        self.assertAlmostEqual(ratio, result["failed"] / result["attempted"])
        self.assertGreater(ratio, 0)
        self.assertTrue(any(line.startswith("check failed:") for line in lines))

    def test_bad_arguments_print_no_result(self):
        code, lines = run_bench("--workload", "nope", "--seed", "1", "--seconds", "1",
                                "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
