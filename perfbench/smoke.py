#!/usr/bin/env python3
"""Smoke test of the benchmark itself at tiny sizes; exits 1 on any failure.

    python3 perfbench/smoke.py

It runs every workload through ``run.main`` in both modes, with run lengths
cut to a few dozen rounds, and checks that every metric BENCHMARK.json names
is printed with its unit, or is listed as not applicable on that workload.
It then corrupts one game's output on its way to the checks and requires the
game to be counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import numpy as np

import run

TINY = {
    "online-m8": replace(run.WORKLOADS["online-m8"], rounds=60, warmup_rounds=10),
    "online-m512": replace(
        run.WORKLOADS["online-m512"], experts=16, rounds=30, warmup_rounds=5
    ),
    "sweep-m8": replace(run.WORKLOADS["sweep-m8"], rounds=60, warmup_rounds=10),
}


def run_cli(workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"run.main exited {code}")
    return out.getvalue().splitlines()


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from run.WORKLOADS")
        return 1
    run.WORKLOADS.update(TINY)
    failures = []

    for workload in sorted(TINY):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = run_cli(workload, trace)
            result = json.loads(lines[-1])
            na_line = [line for line in lines if line.startswith("not applicable on")]
            not_applicable = set(na_line[0].split(": ", 1)[1].split(", ")) if na_line else set()
            if not (result["correct"] and result["failed"] == 0):
                failures.append(f"{workload} trace={trace}: run not correct: {result}")
            for metric in declared[key]:
                name, unit = metric["name"], metric["unit"]
                printed = result["metrics"].get(name)
                if printed is None or printed["unit"] != unit:
                    failures.append(f"{workload} trace={trace}: {name} not printed with unit {unit}")
                elif printed["value"] == 0 and name not in not_applicable:
                    failures.append(f"{workload} trace={trace}: {name} is 0 but not marked n/a")
            extra = set(result["metrics"]) - {m["name"] for m in declared[key]}
            if extra:
                failures.append(f"{workload} trace={trace}: undeclared metrics {sorted(extra)}")
            print(f"{'FAIL' if failures else 'PASS'}  {workload} trace={trace}: metrics printed")

    # A loss table translated by 1e6 in one round leaves the probabilities
    # unchanged but moves the expected loss, so the regret check must fail.
    original = run.checks.check_online_game
    corrupted = []

    def corrupting(kernel, w_budget, gamma, table, *rest):
        if not corrupted:
            table = table.copy()
            table[0] += 1e6
            corrupted.append(True)
        return original(kernel, w_budget, gamma, table, *rest)

    run.checks.check_online_game = corrupting
    try:
        lines = run_cli("online-m8", 0)
    finally:
        run.checks.check_online_game = original
    result = json.loads(lines[-1])
    rate_line = next(line for line in lines if line.startswith("games attempted="))
    expected_rate = 1 / result["attempted"]
    if not (
        corrupted
        and result["failed"] == 1
        and not result["correct"]
        and np.isclose(float(rate_line.rsplit("=", 1)[1]), expected_rate)
    ):
        failures.append(f"corrupted loss table not counted in fail_rate: {rate_line}")
    print(f"{'FAIL' if failures else 'PASS'}  corrupted output counted in fail_rate ({rate_line})")

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
