"""The CLI's exit-code contract on mutated input.

Expressions drawn from the grammar, and marker lists, are mutated once or
twice, by deleting a character or inserting NUL, tab, non-ASCII or grammar
characters, then run through every command that reads an expression or a
marker list.  Each run exits 0 or 2 (never 1, a failed check, or 3, an
internal error); a usage error without ``--json`` is one line of stderr,
and with ``--json`` one record on stdout; and each run stays within
``BUDGET_S``.  Operands stay small (depth 2, powers at most 2, one-digit
literals), binary operators are spaced, and no digit or '^' is inserted,
so two mutations cannot make a larger exponent.  hypothesis is not a
declared dependency, so the module is skipped without it.
"""

import contextlib
import io
import json
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qweyl.cli import main  # noqa: E402

FAST = settings(max_examples=60, deadline=None, database=None)
BUDGET_S = 2.0
LEAVES = ["x1", "x2", "y1", "y2", "z0", "z1", "z2", "2", "3/2", "eta^[1,-1]", "eta^[0,2]"]
MARKERS = ["z0", "z1", "z2", "y1", "y2", "x1", "x2"]
INSERTED = "\x00\té²λ ()*+-,[]"  # no digit or '^': exponents stay as drawn


@st.composite
def expressions(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(LEAVES))
    kind = draw(st.integers(0, 2))
    a = draw(expressions(depth - 1))
    if kind == 0:
        return a + draw(st.sampled_from([" + ", " - ", " * "])) + draw(expressions(depth - 1))
    if kind == 1:
        return f"({a})^{draw(st.integers(0, 2))}"
    return f"-({a})"


marker_lists = st.lists(st.sampled_from(MARKERS), max_size=4).map(",".join)


@st.composite
def mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 2))):
        if text and draw(st.booleans()):
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + text[at + 1:]
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(INSERTED)) + text[at:]
    return text


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2), (argv, code, out.getvalue(), err.getvalue())
    assert elapsed < BUDGET_S, (argv, elapsed)
    if code == 2 and "--json" in argv:
        assert (json.loads(out.getvalue())["command"], err.getvalue()) == (argv[1], "")
    elif code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), argv


@FAST
@given(mutated(expressions()), expressions(), st.booleans())
def test_expression_commands_exit_0_or_2(expr, other, as_json):
    flags = ["--json"] if as_json else []
    for command in ("nf", "limit", "maltsiniotis"):
        assert_contract(flags + [command, "--", expr])
    for command in ("comm", "bracket", "scl"):
        assert_contract(flags + [command, "--", expr, other])
        assert_contract(flags + [command, "--", other, expr])


@FAST
@given(mutated(marker_lists), st.booleans())
def test_marker_commands_exit_0_or_2(tspec, as_json):
    flags = ["--json"] if as_json else []
    for command in ("stratum", "center"):
        assert_contract(flags + [command, "--", tspec])


@pytest.mark.parametrize("as_json", [False, True])
def test_marker_commands_on_an_instance_of_no_pairs_exit_2(tmp_path, as_json):
    """An n = 0 instance is valid, but M_0 has no sets: ``stratum`` and
    ``center`` give the size error of ``admissible 0``."""
    path = tmp_path / "n0.json"
    path.write_text(json.dumps({"n": 0, "r": 1, "q_exponents": [], "lambda_exponents": [[]]}))
    flags = ["--config", str(path)] + (["--json"] if as_json else [])
    for argv in (flags + ["stratum", ""], flags + ["center", ""], ["admissible", "0"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        if "--json" in argv:
            assert json.loads(out.getvalue())["error"] == "n must be positive"
        else:
            assert (out.getvalue(), err.getvalue()) == ("", "error: n must be positive\n")
