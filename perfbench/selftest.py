"""Smoke self-test of the benchmark: every workload at a tiny size.

Usage, from the repository root:  python3 perfbench/selftest.py

For each workload and each --trace value it checks that the run exits 0,
that the last line is the result object with exactly the metrics that
BENCHMARK.json declares (names and units), that every end-to-end metric is
printed by name with its unit and direction, and that error_share is 0. It
also checks that the benchmark refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and perfbench/, and that the
filter for the grounder's stale-aggregate defect flags its reproducer and
passes the same program with its statements swapped.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from aspcore2.parser import parse_program  # noqa: E402
from corpus import WORKLOADS, _stale_aggregate  # noqa: E402
from run import END_TO_END, PER_LAYER, REPORTED  # noqa: E402


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    done = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    wanted = declared["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics {got} differ from BENCHMARK.json {wanted}")
    printed = "\n".join(lines[:-1])
    for name, (unit, better, _what) in END_TO_END.items():
        if trace and name == "setup_s":
            continue  # the traced run does not measure set-up
        pattern = rf"^  {re.escape(name)} = (\S+) {re.escape(unit)} \({better} is better\)$"
        match = re.search(pattern, printed, re.M)
        if match is None:
            problems.append(f"{name} not printed with unit {unit} and direction {better}")
        elif name == "error_share" and float(match.group(1)) != 0:
            problems.append(f"error_share is {match.group(1)}")
    return problems


def check_refuses_without_program() -> list[str]:
    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"ran without the program: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def check_stale_filter() -> list[str]:
    cases = {":- #count{: a} != 1. a.": True, "a. :- #count{: a} != 1.": False}
    return [
        f"_stale_aggregate({text!r}) is not {want}"
        for text, want in cases.items()
        if _stale_aggregate(parse_program(text).rules) != want
    ]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }
    problems = []
    if set(declared["end_to_end"]) != set(REPORTED) or set(declared["per_layer"]) != set(PER_LAYER):
        problems.append("BENCHMARK.json and run.py declare different metrics")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json lists other workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
    found = check_stale_filter()
    print(f"stale-aggregate filter: {'ok' if not found else 'FAILED'}")
    problems += found
    found = check_refuses_without_program()
    print(f"refuses to run without the program: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
