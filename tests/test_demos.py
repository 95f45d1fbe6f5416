"""Every narrative script in demos/ runs to completion and prints exactly
its recorded output in tests/demo_output/, under ``python -O`` too when the
tests themselves run so."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "demo_output"


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = ["-O"] if sys.flags.optimize else []  # subprocesses do not inherit it
    proc = subprocess.run(
        [sys.executable, *flags, str(script)], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{script.stem}.txt").read_text()
