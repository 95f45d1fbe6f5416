"""``import qweyl`` loads only the algebra and its limit (scalars, weyl,
poisson); the strata, the parser, the specializations, the quantum-plane
demo and the verification suites load on first use of one of their names,
and each CLI command loads only the modules it runs.  The import checks and
the cold command runs each start a fresh interpreter, in which nothing of
qweyl is loaded yet."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qweyl

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = ROOT / "tests" / "cli_output"
ALGEBRA = {"qweyl", "qweyl.scalars", "qweyl.weyl", "qweyl.poisson"}
CLI = ALGEBRA | {"qweyl.cli", "qweyl.exprs"}


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
    # nor the strata or the specializations: only the commands that run them do
    assert _loaded_by("import qweyl.cli") == CLI


@pytest.mark.parametrize("argv, extra", [
    (["nf", "x1*y1"], set()),
    (["comm", "x1", "y1"], set()),
    (["stratum", "z1"], {"qweyl.spectra"}),
    (["validate"], {"qweyl.interp"}),
], ids=["nf", "comm", "stratum", "validate"])
def test_a_command_loads_only_what_it_runs(argv, extra):
    run = ("import contextlib, io, qweyl.cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           f"    code = qweyl.cli.main({argv!r})\n"
           "if code:\n    raise SystemExit(f'exit {code}')")  # no assert: it may run under -O
    assert _loaded_by(run) == CLI | extra


def test_every_public_name_resolves():
    star: dict = {}
    exec("from qweyl import *", star)
    assert set(qweyl.__all__) <= set(star)
    assert set(qweyl.__all__) <= set(dir(qweyl))
    for name in qweyl.__all__:
        assert star[name] is getattr(qweyl, name)


def test_a_lazy_name_is_read_from_its_module_each_time(monkeypatch):
    for module, name in (("exprs", "parse_expr"), ("spectra", "stratum_report")):
        home = importlib.import_module(f"qweyl.{module}")
        assert getattr(qweyl, name) is getattr(home, name)
        assert name not in vars(qweyl)
        monkeypatch.setattr(home, name, wrapper := lambda *args: None)
        assert getattr(qweyl, name) is wrapper
        monkeypatch.undo()
        assert getattr(qweyl, name) is getattr(home, name)


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
