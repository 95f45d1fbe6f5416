"""The repository's pytest settings report a failing property test like any
other failure instead of aborting the run, and the library runs the same
under ``python -O``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

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


def test_library_has_no_assert_statement():
    """``python -O`` strips asserts, so a check in the library is a raised
    error: the optimized run computes and rejects exactly what the plain
    one does."""
    modules = sorted((ROOT / "src" / "qweyl").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert modules and found == []
