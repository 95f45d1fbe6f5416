"""``cli._render`` prints a ``--json`` record exactly as
``json.dumps(record, indent=2, sort_keys=True)`` does: on every record of
the transcript corpus, on generated records, and through ``main``, whose
records never reach json's indenting encoder; a record it does not render
(a float, a non-str key) is printed by ``json.dumps`` itself.  hypothesis
is not a declared dependency, so the module is skipped without it.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qweyl import cli  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "cli_output"
_spec = importlib.util.spec_from_file_location("cli_output_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


DUMPS = json.dumps  # held, as a test below replaces json.dumps


def stdlib(value) -> str:
    return DUMPS(value, indent=2, sort_keys=True)


def json_stdouts():
    """The stdout of every ``--json`` row of the corpus, from its transcript."""
    for name in sorted({record.file_name(row) for row in record.read_cases()}):
        if name.endswith(".json"):
            text = (GOLDEN / name).read_text(encoding="utf-8")
            for entry in text.split("--- stdout\n")[1:]:
                yield entry.split("--- stderr\n")[0]


def test_render_matches_the_stdlib_on_the_corpus():
    stdouts = list(json_stdouts())
    assert len(stdouts) > 300
    for out in stdouts:
        value = json.loads(out)
        assert cli._render(value) == stdlib(value) == out[:-1]


# every kind of string json escapes: quotes, backslashes, control and
# non-ASCII characters, lone surrogates and astral characters
CHARS = st.characters(exclude_categories=()) | st.characters(categories=["Cc", "Cs"])
TEXT = st.text(CHARS, max_size=8) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", " ", "\ud800", "\U0001f600", "é/ü"])
BIG = 10 ** 3999  # 4000 digits, inside the interpreter's limit on digits printed
LEAVES = (st.none() | st.booleans() | st.integers() | TEXT
          | st.integers(-BIG, BIG) | st.sampled_from([BIG, -BIG, 0, -1]))
RECORDS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, database=None)
@given(RECORDS)
@example({})
@example([])
@example({"": {}, "a": [], "b": [[], {}], "é": [None, True, False, -BIG]})
@example({"\ud800": "\x00", "Z": 1, "a": 2, "_": 3})
def test_render_matches_the_stdlib_on_generated_records(value):
    assert cli._render(value) == stdlib(value)


@pytest.mark.parametrize("value", [1.5, {"a": 0.0}, {1: "x"}, [float("nan")], {True: 1},
                                   {"a": {None: 1}}, object()])
def test_render_refuses_what_it_does_not_render(value):
    with pytest.raises(TypeError):
        cli._render(value)


WORKLOAD_ARGVS = [
    ["nf", "x1*y1 + 3/4*z1"],
    ["comm", "x1 + y2", "y1*x2"],
    ["bracket", "x1 + y2", "y1*x2"],
    ["limit", "eta^[1,-1]*y1*x1"],
    ["scl", "x1 + y2", "y1*x2"],
    ["stratum", "z1,z2,y2"],
    ["center", "z2"],
    ["maltsiniotis", "z2*x1 + x2"],
    ["admissible", "3"],
]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_main_never_indents_through_json(monkeypatch):
    """The nine commands of a ``cli`` workload session print their records
    without json's indenting encoder, which is its pure-Python one."""
    def no_indent(*args, **kwargs):
        if kwargs.get("indent") is not None:
            raise AssertionError("json.dumps called with indent")
        return DUMPS(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", no_indent)
    for argv in WORKLOAD_ARGVS:
        code, out = run(["--json", *argv])
        assert code == 0 and out == stdlib(json.loads(out)) + "\n", argv
    assert run(["--json", "nf", "x1 + q2"])[0] == 2


def test_main_leaves_other_records_to_json(monkeypatch):
    """A record with a float or an int key prints as json prints it."""
    fields = {"result": {2: 0.5, 10: [1.5, "x"]}, "checks": []}
    command = cli.Command("a record json renders", lambda *_: (fields, []), on_instance=False)
    monkeypatch.setitem(cli.COMMANDS, "validate", command)
    code, out = run(["--json", "validate"])
    assert (code, out) == (0, stdlib({"command": "validate", **fields}) + "\n")
