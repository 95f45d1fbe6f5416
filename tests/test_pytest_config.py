"""The repository's pytest settings report a failing property test like any
other failure instead of aborting the run, and the library runs the same
under ``python -O`` and keeps the interpreter's default recursion limit."""

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


def optimize_dependent(source: str) -> list[int]:
    """Lines of ``source`` whose meaning ``python -O`` changes: an
    ``assert`` statement or a use of ``__debug__``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]


def test_library_has_no_assert_statement():
    """``python -O`` strips asserts and sets ``__debug__`` to False, so a
    check in the library is a raised error and no code reads ``__debug__``:
    the optimized run computes and rejects exactly what the plain one does."""
    assert optimize_dependent("x = 1\nassert x\nif __debug__:\n    y = __debug__\n") == [2, 3, 4]
    modules = sorted((ROOT / "src" / "qweyl").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in modules
        for line in optimize_dependent(path.read_text(encoding="utf-8"))
    ]
    assert modules and found == []


def recursion_limit_uses(source: str) -> list[int]:
    """Lines of ``source`` that name ``setrecursionlimit``: a use through
    ``sys``, or an import of it under any name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "setrecursionlimit")
        or (isinstance(node, ast.Name) and node.id == "setrecursionlimit")
        or (isinstance(node, ast.alias) and node.name == "setrecursionlimit")
    )


def test_library_keeps_the_default_recursion_limit():
    """The expression depth bound (``exprs.MAX_NESTING``: four parser frames
    and at most two evaluation frames a level) assumes the interpreter's
    default recursion limit, so no library module changes it."""
    assert recursion_limit_uses(
        "import sys\nsys.setrecursionlimit(10**4)\n"
        "from sys import setrecursionlimit as s\ns(5)\n"
    ) == [2, 3]
    modules = sorted((ROOT / "src" / "qweyl").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in modules
        for line in recursion_limit_uses(path.read_text(encoding="utf-8"))
    ]
    assert modules and found == []


def private_weyl_imports(source: str) -> list[str]:
    """Underscore names that ``source`` imports from ``qweyl.weyl``."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "qweyl.weyl" or (node.level == 1 and node.module == "weyl"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_only_weyl_uses_the_engine_private_names():
    """The engine's packed dicts (``_Decoder``, ``_pack_terms``, ...) are
    private to ``weyl.py``: no other module imports an underscore name from
    it, so the engine and the Poisson bracket kernel change independently."""
    assert private_weyl_imports("from .weyl import WeylParams, _Decoder") == ["_Decoder"]
    assert private_weyl_imports("from qweyl.weyl import _unpack as u") == ["_unpack"]
    modules = sorted((ROOT / "src" / "qweyl").rglob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if path.name != "weyl.py"
        and (names := private_weyl_imports(path.read_text(encoding="utf-8")))
    }
    assert len(modules) > 1 and found == {}


def unbounded_caches(source: str) -> list[str]:
    """Functions with parameters that ``source`` decorates with a cache of
    no finite integer size: ``functools.cache``, or ``lru_cache`` whose
    ``maxsize`` is ``None`` or not an integer literal.  Such a cache keeps
    every argument it meets, instances included, for the life of the
    process; a bare ``lru_cache`` keeps 128."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            sizes = (call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                     if call else [])
            if name == "cache" or (name == "lru_cache" and not all(
                    isinstance(s, ast.Constant) and type(s.value) is int for s in sizes)):
                found.append(f"{node.name}:{node.lineno}")
    return found


def test_library_caches_are_bounded():
    """Every ``lru_cache`` in the library has a finite integer ``maxsize``;
    ``functools.cache`` and ``lru_cache(maxsize=None)`` decorate only
    functions with no parameters, which hold one value."""
    assert unbounded_caches(
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\ndef a(p): pass\n"
        "@lru_cache(None)\ndef b(p): pass\n"
        "@cache\ndef c(self): pass\n"
        "@lru_cache(maxsize=SIZE)\ndef d(*p): pass\n"
        "@lru_cache(maxsize=8)\ndef e(p): pass\n"
        "@lru_cache\ndef f(p): pass\n"
        "@functools.cache\ndef g(): pass\n"
    ) == ["a:3", "b:5", "c:7", "d:9"]
    modules = sorted((ROOT / "src" / "qweyl").rglob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := unbounded_caches(path.read_text(encoding="utf-8")))
    }
    assert len(modules) > 1 and found == {}
