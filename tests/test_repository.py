"""Checks on the repository itself rather than on the toolkit."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aspcore2

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )


def require_work_tree():
    if shutil.which("git") is None:
        pytest.skip("git is not on PATH")
    if git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("the tests are not running in a git work tree")


def test_no_tracked_file_is_ignored():
    # A tracked file that .gitignore lists is a generated or stale artifact
    # committed by mistake; git keeps tracking it despite the ignore rule.
    require_work_tree()
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked but ignored:\n{listed.stdout}"


def test_package_tracks_only_python_sources():
    # The package is pure Python: no generated C, Cython or other sources.
    require_work_tree()
    listed = git("ls-files", "src/aspcore2")
    assert listed.returncode == 0, listed.stderr
    others = [path for path in listed.stdout.splitlines() if not path.endswith(".py")]
    assert not others, f"tracked non-Python files in the package: {others}"


@pytest.mark.parametrize(
    "script,args",
    [
        ("bench_frontend.py", ["--kbytes", "2", "--repeats", "1"]),
        ("bench_ground.py", ["--repeats", "1"]),
        ("bench_verify.py", ["--queens", "4", "--cycles", "4", "--repeats", "1"]),
    ],
)
def test_benchmark_scripts_run_and_their_checks_hold(script, args):
    # Each script checks the outputs it times and exits 1 when one is wrong;
    # bench_ground.py compares each ground text with its pinned sha256.
    env = {**os.environ, "PYTHONPATH": str(Path(aspcore2.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stdout + done.stderr
