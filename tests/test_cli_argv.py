"""``cli.main`` parses a command line by one of two routes: ``[--json]
COMMAND a1 ... ak`` of a command of ``cli._OPERANDS``, with exactly its
operands, none starting with ``-`` and each passing its type and choices,
is bound without a parser; every other argv goes to the full parser.  The
bind gives what the full parser gives: the same namespace, or the same
usage error with the same command and ``--json`` flag, or the same exit
with the same help text, on every command line of the transcript corpus
and on generated ones.  hypothesis is not a declared dependency, so the
module is skipped without it.
"""

import argparse
import contextlib
import importlib.util
import io
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

FAST = settings(max_examples=200, deadline=None, database=None)


def full_route(argv, args):
    cli._parser().parse_args(argv, args)


def outcome(route, argv):
    """What parsing ``argv`` by ``route`` gives, as ``main`` reads it."""
    args = argparse.Namespace(json=False, command=None)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            route(list(argv), args)
    except cli._ArgvError as exc:
        return "error", str(exc), args.command, args.json
    except SystemExit as exc:  # -h, after printing its help
        return "exit", exc.code, out.getvalue()
    return "parsed", vars(args)


def assert_routes_agree(argv):
    assert outcome(cli._parse_argv, argv) == outcome(full_route, argv), argv


def test_routes_agree_on_the_corpus():
    for row in record.read_cases():
        config, *args = row
        assert_routes_agree(([] if config == "builtin" else
                             ["--config", str(GOLDEN / f"{config}.json")]) + args)


# option-like words of both parsers, their abbreviations and bad values, a
# separator, and operands that start with '-'
WORDS = ["-h", "--help", "--he", "-hx", "--", "-", "--json", "--js", "--json=1", "--config",
         "--c", "--config=cfg.json", "cfg.json", "--=x", "--=", "---", "--suite", "--su", "--s",
         "--seed", "--seed=x", "--seed=7", "--se", "7", "-3", "x", "admissible-counts",
         "quantum-plane", "z1,z2", "x1", "-x1", "-5/12*x2", "-1 + y2", "--j x", "", " "]
COMMAND_WORDS = [*cli.COMMANDS, "frobnicate", "-h", "--config", "--json", "--"]


@FAST
@given(st.booleans(), st.sampled_from(COMMAND_WORDS),
       st.lists(st.sampled_from(WORDS) | st.text(max_size=4), max_size=5))
@example(True, "nf", ["--", "-x1 + y2 - -z1"])
@example(False, "nf", ["x1", "x2"])
@example(False, "nf", ["-x1"])
@example(True, "verify", ["--suite"])
@example(False, "verify", ["--seed", "x", "--suite", "nope"])
@example(True, "scl", ["-h"])
@example(False, "comm", ["--=x"])
@example(False, "nf", [""])
@example(False, "comm", ["x1", " "])
@example(False, "stratum", [""])
@example(True, "scl", ["x1", "y1"])
@example(False, "admissible", ["03"])
@example(False, "example", ["foo"])
@example(False, "example", [""])
@example(False, "admissible", ["\u0663"])  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
@example(True, "admissible", [" 3"])
@example(False, "admissible", [""])
@example(False, "admissible", ["9" * 5000])  # past int()'s limit on digits read
def test_routes_agree(as_json, command, rest):
    assert_routes_agree((["--json"] if as_json else []) + [command] + rest)


# the nine command shapes of the benchmark's `cli` workload, and `example`
WORKLOAD_SHAPES = [["nf", "x1*y1"], ["comm", "x1", "y1"], ["bracket", "x1", "y1"], ["limit", "x1"],
                   ["scl", "x1", "y1"], ["stratum", "z1"], ["center", ""], ["maltsiniotis", "z1"],
                   ["admissible", "3"], ["example", "quantum-plane"]]


def spy_on_parse_args(monkeypatch):
    """The argvs that ``main`` hands to the full parser's ``parse_args``."""
    parser, calls = cli._parser(), []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda *a: calls.append(a[0]) or parse_args(*a))
    return calls


def test_command_lines_of_the_workload_shape_skip_the_full_parser(monkeypatch, capsys):
    """Each workload-shape command line, with or without ``--json``, calls
    no ``parse_args``; one with ``--config`` still takes the full parser,
    once."""
    calls = spy_on_parse_args(monkeypatch)
    for argv in WORKLOAD_SHAPES:
        for prefix in ([], ["--json"]):
            assert cli.main(prefix + argv) == 0, argv
    assert calls == []
    capsys.readouterr()
    argv = ["--config", str(GOLDEN / "n3.json"), "nf", "x1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "x1\n" and calls == [argv]


def test_plain_command_lines_are_bound_without_a_parser(monkeypatch, capsys):
    """Every command but ``verify`` has a row in the bind table, and its
    option-free line is bound without a parser.  A line with ``--``, an
    extra operand, an operand that its type or choices refuse, or
    ``verify`` calls the full parser once, for argparse's message."""
    assert set(cli._OPERANDS) == set(cli.COMMANDS) - {"verify"}
    calls = spy_on_parse_args(monkeypatch)
    for prefix in ([], ["--json"]):
        assert cli.main(prefix + ["validate"]) == 0
    assert calls == []
    capsys.readouterr()
    for argv, code, err in [
        (["nf", "--", "-x1"], 0, ""),
        (["nf", "x1", "x2"], 2, "error: unrecognized arguments: x2\n"),
        (["admissible", "x"], 2, "error: argument n: invalid int value: 'x'\n"),
        (["example", "foo"], 2, "error: argument name: invalid choice: 'foo' (choose from "),
        (["verify", "--suite", "admissible-counts"], 0, ""),
    ]:
        calls.clear()
        assert cli.main(argv) == code, argv
        got = capsys.readouterr().err
        assert (got.startswith(err) if code else got == err) and calls == [argv], argv
