#!/usr/bin/env python3
"""Smoke test of the benchmark itself (run from the repository root):

    python3 perfbench/smoke_test.py

On a short fixed-seed run of every workload, untraced and traced, the result
line must follow BENCHMARK.json: every named metric present with its unit,
nothing else, and no failed operation. A run with a deliberately corrupted
expected answer must report failed operations and correct=false. Exits 0
when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = 2


def run(workload, trace, corrupt=0):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace),
               "--corrupt-oracle", str(corrupt)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n"
                           + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} failed")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    problems.append(f"{label}: {name} is not a number")
            print(f"ok: {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")
    # A corrupted expected answer must surface as failed operations.
    for workload in ("serve_point", "materialize"):
        result = run(workload, 0, corrupt=1)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: corrupted oracle passed silently")
        else:
            print(f"ok: {workload} corrupted oracle: {result['failed']} of "
                  f"{result['attempted']} operations failed")
    for problem in problems:
        print("FAIL: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
