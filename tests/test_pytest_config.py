"""The repository's pytest settings report a failing property test like any
other failure instead of aborting the run."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    # plain asserts keep the inner run short; the settings under test are
    # the warning filters
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q", "--assert=plain",
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
