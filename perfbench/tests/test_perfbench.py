"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The smoke tests build perfbench_runner on first use (about a minute on four
cores) into the same build directory as run.py.
"""

import copy
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def record(measured=100, completed=90, shed=6, aborted=4, digest="00ff"):
    """A consistent runner record, for doctoring."""
    return {
        "sim": {"measured": measured, "completed": completed, "shed": shed,
                "aborted": aborted, "completions_digest": digest,
                "window_requests": measured, "hits": 70},
        "conservation": {
            "measured_arrivals": measured, "records": measured,
            "unique_requests": measured, "completed": completed,
            "shed": shed, "aborted": aborted, "bad_latency": 0,
            "shed_counter": shed, "aborted_counter": aborted},
        "replay_s": 1.0,
    }


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.SUBSEEDS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class ChecksTest(unittest.TestCase):
    def test_consistent_record_passes(self):
        self.assertEqual(checks.conservation(record()), [])
        self.assertEqual(checks.same_simulation(record(), record(), "x"), [])

    def test_conservation_fires_on_doctored_records(self):
        doctored = {
            "lost request": {"records": 99},
            "duplicate request": {"unique_requests": 99},
            "unaccounted end": {"completed": 89},
            "shed counter": {"shed_counter": 5},
            "abort counter": {"aborted_counter": 5},
            "bad latency": {"bad_latency": 1},
        }
        for what, change in doctored.items():
            with self.subTest(what):
                bad = record()
                bad["conservation"].update(change)
                self.assertTrue(checks.conservation(bad))

    def test_determinism_fires_on_a_changed_decision(self):
        for key, value in (("completions_digest", "00fe"), ("hits", 71)):
            with self.subTest(key):
                bad = record()
                bad["sim"][key] = value
                problems = checks.same_simulation(record(), bad, "repeat")
                self.assertEqual(len(problems), 1)
                self.assertIn(key, problems[0])

    def test_run_counts_a_doctored_repeat_as_failed(self):
        first = record()
        repeat = copy.deepcopy(first)
        repeat["sim"]["completions_digest"] = "beef"
        with mock.patch.object(run, "run_json",
                               side_effect=[first, repeat, first]):
            bench_run = run.Run(Path("runner"), "steady-sized", 1, 1.0)
            seed = bench_run.subseeds[0]
            bench_run.replay(seed, "replay")
            self.assertEqual(bench_run.failed, 0)
            bench_run.replay(seed, "replay")
            self.assertEqual(bench_run.failed, 1)
            bench_run.replay(seed, "replay")
            self.assertEqual((bench_run.attempted, bench_run.failed), (3, 1))

    def test_non_release_build_is_refused(self):
        info = {"commit": "x", "compiler": "g++", "build_type": "Debug",
                "ndebug": 0}
        with mock.patch.object(run, "build", return_value=Path("runner")), \
                mock.patch.object(run, "run_json",
                                  side_effect=[info, {"calib_ms": 1.0}]), \
                mock.patch("sys.stdout"):
            self.assertEqual(run.main(["--workload", "steady-sized",
                                       "--seed", "1", "--seconds", "1"]), 2)


class SmokeTest(unittest.TestCase):
    """A small run of every workload, untraced and traced, through the real
    command: it must pass its checks and emit every declared metric with
    its unit."""

    def test_every_workload_emits_every_metric(self):
        for workload in sorted(run.SUBSEEDS):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(BENCH / "run.py"),
                         "--workload", workload, "--seed", "1",
                         "--seconds", "0", "--trace", str(trace),
                         "--size", "0.1"],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=900)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"],
                                       run.SUBSEEDS[workload])
                    declared = SPEC["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in declared})
                    for metric in declared:
                        emitted = result["metrics"][metric["name"]]
                        self.assertEqual(emitted["unit"], metric["unit"])
                        self.assertIsInstance(emitted["value"], (int, float))
                    if not trace:
                        for name, emitted in result["metrics"].items():
                            self.assertGreater(emitted["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
