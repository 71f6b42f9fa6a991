#!/usr/bin/env python3
"""Benchmark of the ESG simulator: four replay workloads, measured end to
end (tracing off) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_runner in Release mode from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, records
the host, then replays the workload, one process per replay, for --seconds.
Every replay's output is checked (tests/test_perfbench.py covers the checks).
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts replays and `failed` the replays that crashed or failed a
check. Exit codes: 0 all checks passed; 1 a check failed (the result line
still prints); 2 bad arguments, failed build or refused build type.
README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sub-seeds pooled per run. A run replays sub-seeds 0..K-1 of its --seed once
# each and pools their simulated outcomes, then repeats them in order until
# --seconds is spent (at least one repeat). The repeats feed the host-time
# medians and the determinism check. K is sized so that one pass takes about
# half of a 20 s run on a 4-core x86 VM.
SUBSEEDS = {
    "azure-overload": 6,
    "steady-sized": 8,
    "relaxed-search": 8,
    "composed-observed": 10,
}
REPLAY_TIMEOUT_S = 150


class ReplayError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the runner (both no-ops when up to date);
    returns its path."""
    out = build_dir() / "perfbench"
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench_runner",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_runner"


def run_json(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REPLAY_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ReplayError(f"{' '.join(cmd)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def host_record(runner):
    """nproc, commit, compiler, build type and a fixed CPU loop's time."""
    info = run_json([str(runner), "--build-info"])
    commit = info["commit"]
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "commit": commit,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "ndebug": info["ndebug"],
        "calib_ms": run_json([str(runner), "--calibrate"])["calib_ms"],
    }


def nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def requests_per_s(record):
    return record["sim"]["window_requests"] / record["replay_s"]


class Run:
    """One benchmark run: its replays, their checks and its failures."""

    def __init__(self, runner, workload, seed, size):
        self.runner = runner
        self.workload = workload
        self.size = size
        self.work_dir = build_dir() / "perfbench-work"
        k = SUBSEEDS[workload]
        self.subseeds = [(seed * 1000 + i) % 2**64 for i in range(k)]
        self.attempted = 0
        self.failed = 0
        self.first = {}  # sub-seed -> first untraced record

    def replay(self, subseed, mode, reference=None):
        """Runs and checks one replay; None when it crashed. A `reference`
        replay of the same sub-seed in the other mode must match it."""
        self.attempted += 1
        try:
            record = run_json([
                str(self.runner), "--workload", self.workload,
                "--seed", str(subseed), "--mode", mode,
                "--work-dir", str(self.work_dir), "--size", repr(self.size)])
        except (ReplayError, subprocess.SubprocessError, ValueError) as e:
            self.fail([f"replay crashed: {e}"], subseed, mode)
            return None
        problems = checks.conservation(record)
        if reference is not None:
            problems += checks.same_simulation(reference, record,
                                               "traced vs untraced")
        if mode == "replay":
            if subseed in self.first:
                problems += checks.same_simulation(
                    self.first[subseed], record, "repeat of the same seed")
            else:
                self.first[subseed] = record
        self.fail(problems, subseed, mode)
        return record

    def fail(self, problems, subseed, mode):
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"CHECK FAILED ({self.workload} seed {subseed} {mode}): "
                    f"{problem}")

    def schedule(self, deadline):
        """Sub-seeds in order: one full pass, then at least one repeat, then
        more while time remains."""
        i = 0
        while i <= len(self.subseeds) or time.monotonic() < deadline:
            yield i, self.subseeds[i % len(self.subseeds)]
            i += 1


def end_to_end(run, deadline):
    records = []
    for _, subseed in run.schedule(deadline):
        record = run.replay(subseed, "replay")
        if record is not None:
            records.append(record)
    first = [run.first[s] for s in run.subseeds if s in run.first]
    if len(first) != len(run.subseeds):
        return None
    sims = [r["sim"] for r in first]
    measured = sum(s["measured"] for s in sims)
    if measured == 0:
        log("perfbench: no measured requests")
        return None
    latencies = sorted(x for r in first for x in r["latencies_ms"])
    log(f"pooled over {len(first)} sub-seeds: {measured} measured requests, "
        f"{len(latencies)} latency samples; {len(records)} timed replays")
    return {
        "replay_req_per_s": median([requests_per_s(r) for r in records]),
        "peak_rss_mb": median([r["peak_rss_kib"] for r in records]) / 1024,
        "setup_s": median([r["setup_s"] for r in records]),
        "slo_miss_rate": 1 - sum(s["hits"] for s in sims) / measured,
        "cost_usd_per_1k_req":
            1000 * sum(s["total_cost_usd"] for s in sims) / measured,
        "latency_p50_ms": nearest_rank(latencies, 0.50),
        "latency_p99_ms": nearest_rank(latencies, 0.99),
        "completed_share": sum(s["completed"] for s in sims) / measured,
    }


def per_layer(run, deadline):
    """Untraced and traced replays of each sub-seed, in alternating order.
    Layer values are medians over the first pass's traced replays."""
    plain, traced, first_traced = [], [], []
    for i, subseed in run.schedule(deadline):
        modes = ("replay", "traced") if i % 2 == 0 else ("traced", "replay")
        pair = {modes[0]: run.replay(subseed, modes[0])}
        if pair[modes[0]] is None:
            continue
        pair[modes[1]] = run.replay(subseed, modes[1], pair[modes[0]])
        if pair[modes[1]] is None:
            continue
        plain.append(pair["replay"])
        traced.append(pair["traced"])
        if i < len(run.subseeds):
            first_traced.append(pair["traced"])
    if len(first_traced) != len(run.subseeds):
        return None
    layers = {name: median([r["layers"][name] for r in first_traced])
              for name in first_traced[0]["layers"]}
    layers["bench.trace_overhead"] = 1 - (
        median([requests_per_s(r) for r in traced]) /
        median([requests_per_s(r) for r in plain]))
    layers["metrics.latency_samples"] = sum(
        run.first[s]["sim"]["latency_samples"] for s in run.subseeds)
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBSEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="workload length multiplier (smoke tests)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        runner = build()
        host = host_record(runner)
    except (OSError, subprocess.SubprocessError, ReplayError, KeyError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    print("host: " + json.dumps(host, sort_keys=True), flush=True)
    if host["build_type"] != "Release" or host["ndebug"] != 1:
        log(f"perfbench: refusing a {host['build_type']} build; "
            "timings need a Release build")
        return 2

    run = Run(runner, args.workload, args.seed, args.size)
    deadline = time.monotonic() + args.seconds
    values = (per_layer if args.trace else end_to_end)(run, deadline)
    if values is None:
        log("perfbench: no result: a sub-seed never completed a replay")
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:14.6g} {metric['unit']}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(build_dir() / "perfbench-runs.jsonl", "a") as history:
        history.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "host": host, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
