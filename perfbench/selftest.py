#!/usr/bin/env python3
"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload for one second (one pass over its deck) in both
modes and checks that the run reports itself correct with no failed
operation and prints exactly the metrics BENCHMARK.json names, each with
its unit. Then checks that the benchmark refuses to run (non-zero exit,
no result line) in a directory holding only BENCHMARK.json and perfbench/.
Takes about a minute and a half on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> "list[str]":
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}"
                        f" failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json:"
                        f" missing {sorted(set(want) - set(got))},"
                        f" extra {sorted(set(got) - set(want))},"
                        f" unit {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    print(f"{where}: {proc.stdout.splitlines()[-2]}")
    return problems


def check_bare(spec: dict) -> "list[str]":
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"benchmark ran without the package: exit {proc.returncode}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
    problems += check_bare(spec)
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
