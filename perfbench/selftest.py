"""Toy-size self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at toy geometry and checks the result line's schema
against BENCHMARK.json, untraced and traced; then checks that a tampered
output of each workload is reported as a failed op, and that the benchmark
fails without printing a result where the package sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "0"  # a toy seed with recorded references


def run(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def result_line(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def check_schema(res: dict, expected: list[dict], problems: list[str], label: str) -> None:
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(res)}")
        return
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        problems.append(f"{label}: attempted/failed {res['attempted']!r}/{res['failed']!r}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
    for name, m in res["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} = {m['value']!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems: list[str] = []
    toy = ["--toy", "--seconds", "1", "--seed", SEED]
    for workload in ("train-paper", "eval-paper", "corpus"):
        code, lines = run("--workload", workload, "--trace", "0", *toy)
        res = result_line(lines) if code == 0 else {}
        check_schema(res, bench["end_to_end"], problems, f"{workload} untraced")
        if not res.get("correct") or res.get("failed") != 0:
            problems.append(f"{workload}: untampered run reported failures")
        elif any(res["metrics"][m["name"]]["value"] <= 0 for m in bench["end_to_end"]):
            problems.append(f"{workload}: an end-to-end metric is not positive")

        code, lines = run("--workload", workload, "--tamper", "--trace", "0", *toy)
        res = result_line(lines) if code == 0 else {}
        if res.get("correct") is not False or not res.get("failed"):
            problems.append(f"{workload}: tampered output was not reported as a failed op")

    code, lines = run("--workload", "eval-paper", "--trace", "1", *toy)
    res = result_line(lines) if code == 0 else {}
    check_schema(res, bench["per_layer"], problems, "eval-paper traced")
    if not any("top-level spans cover" in line for line in lines):
        problems.append("traced run printed no coverage line")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("--workload", "corpus", *toy, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("without src/ the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
