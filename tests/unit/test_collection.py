"""The tier-1 command must not pick up ``tests/experiments/``."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bare_pytest_collects_no_experiment():
    # A bare run from the root, minus the two tier-1 directories (they
    # only cost import time here): what is left is tests/experiments/,
    # which tests/conftest.py ignores unless an argument names it.
    bare = [sys.executable, "-m", "pytest", "--collect-only", "-q",
            "--ignore=tests/unit", "--ignore=tests/integration"]
    listed = subprocess.run(bare, cwd=REPO_ROOT, capture_output=True, text=True)
    assert "experiments" not in listed.stdout, listed.stdout
    assert "no tests collected" in listed.stdout, listed.stdout + listed.stderr
