"""``import qweyl`` loads only the algebra (scalars, weyl, poisson, spectra);
the parser, the specializations, the quantum-plane demo and the
verification suites load on first use of one of their names.  The import
checks and the cold command runs each start a fresh interpreter, in which
nothing of qweyl is loaded yet."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qweyl

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = ROOT / "tests" / "cli_output"
ALGEBRA = {"qweyl", "qweyl.scalars", "qweyl.weyl", "qweyl.poisson", "qweyl.spectra"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = ["-O"] if sys.flags.optimize else []  # subprocesses do not inherit it
    return subprocess.run([sys.executable, *flags, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _loaded_by(statement: str) -> set[str]:
    proc = _python("-c", f"import sys\n{statement}\n"
                   "print(*(k for k in sys.modules if k.partition('.')[0] == 'qweyl'))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_qweyl_loads_only_the_algebra():
    assert _loaded_by("import qweyl") == ALGEBRA


def test_import_cli_loads_neither_the_suites_nor_the_demo():
    assert _loaded_by("import qweyl.cli") == ALGEBRA | {
        "qweyl.cli", "qweyl.exprs", "qweyl.interp"}


def test_every_public_name_resolves():
    star: dict = {}
    exec("from qweyl import *", star)
    assert set(qweyl.__all__) <= set(star)
    assert set(qweyl.__all__) <= set(dir(qweyl))
    for name in qweyl.__all__:
        assert star[name] is getattr(qweyl, name)


def test_a_lazy_name_is_read_from_its_module_each_time(monkeypatch):
    exprs = importlib.import_module("qweyl.exprs")
    assert qweyl.parse_expr is exprs.parse_expr
    assert "parse_expr" not in vars(qweyl)
    monkeypatch.setattr(exprs, "parse_expr", wrapper := lambda text: None)
    assert qweyl.parse_expr is wrapper
    monkeypatch.undo()
    assert qweyl.parse_expr is exprs.parse_expr


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(qweyl, "no_such_name")


def _recorded_stdout(transcript: str, line: str) -> str:
    text = (TRANSCRIPTS / transcript).read_text(encoding="utf-8")
    entry = text.split(f"$ qweyl {line}\n--- stdout\n", 1)[1]
    return entry.split("--- stderr\n", 1)[0]


@pytest.mark.parametrize("line, transcript", [
    ("verify --suite admissible-counts", "builtin-verify.txt"),  # loads qweyl.suites
    ("example quantum-plane", "builtin-example.txt"),  # loads qweyl.quantum_plane
    ("validate", "builtin-validate.txt"),  # specializes the built-in concrete block
], ids=["verify", "example", "validate"])
def test_a_cold_command_prints_its_transcript(line, transcript):
    proc = _python("-m", "qweyl.cli", *line.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _recorded_stdout(transcript, line)
