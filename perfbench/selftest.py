"""Small-size self-test of the benchmark.

Runs every workload at a small scale, untimed and traced, and checks
that each metric BENCHMARK.json names is reported with its unit and
that every operation passed.  It checks that the generator gives the
same inputs twice for one seed.  Then it corrupts one output on purpose
and checks that this counts as a failed operation, and checks that the
benchmark refuses to run where the program is missing.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import run

SCALE = 0.05
SEED = 7


def _problems(workload: str, trace: bool, result: dict) -> list[str]:
    where = f"{workload} trace={int(trace)}"
    problems = []
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != run.UNITS[trace]:
        problems.append(f"{where}: metrics {sorted(units)} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {value}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def _deterministic() -> list[str]:
    """One seed, generated twice, gives byte-identical inputs for every workload."""
    problems = []
    for workload in sorted(run.workloads.SPECS):
        work = run.Workload(workload, SEED, SCALE, 1)
        try:
            first, second = (work.generate()[0] for _ in range(2))
        finally:
            shutil.rmtree(work.dir, ignore_errors=True)
        if first != second:
            problems.append(f"{workload}: inputs differ between two generations of seed {SEED}")
    return problems


def _bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: the run must fail cleanly."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in run.SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*run.SPEC["command"], "--workload", "corpus-wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["a directory without the program did not fail cleanly"]
    return []


def main() -> int:
    problems = []
    quiet = lambda *args: None  # noqa: E731
    for workload in sorted(run.workloads.SPECS):
        for trace in (False, True):
            result = run.benchmark(workload, SEED, 0, trace, scale=SCALE, log=quiet)
            problems += _problems(workload, trace, result)
    corrupted = run.benchmark("corpus-wide", SEED, 0, False, scale=SCALE, corrupt=True, log=quiet)
    if corrupted["correct"] or corrupted["failed"] < 1:
        problems.append("a corrupted build output was not counted as a failed operation")
    problems += _deterministic()
    problems += _bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
