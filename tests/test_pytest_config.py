"""The pytest settings in pyproject.toml report a failing Hypothesis test
with its falsifying example, not as an INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
"""


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert "Falsifying example: test_fails(" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
