"""Checks on the repository itself rather than on the toolkit."""

import shutil
import subprocess
from pathlib import Path

import pytest

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
