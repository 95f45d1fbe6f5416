"""``cli.main`` parses a command line by one of three routes: a command of
``cli._PLAIN_COMMANDS`` with exactly its operands, none starting with
``-``, is bound without a parser; any other ``COMMAND ...`` and ``--json
COMMAND ...`` go straight to the command's own parser, and every other
argv to the full parser.  Each route gives what the full parser gives: the
same namespace, or the same usage error with the same command and
``--json`` flag, or the same exit with the same help text, on every command
line of the transcript corpus and on generated ones.  hypothesis is not a
declared dependency, so the module is skipped without it.
"""

import argparse
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

FAST = settings(max_examples=200, deadline=None, database=None)


def full_route(argv, args):
    cli._parser()[0].parse_args(argv, args)


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
def test_routes_agree(as_json, command, rest):
    assert_routes_agree((["--json"] if as_json else []) + [command] + rest)


def test_command_lines_of_the_workload_shape_skip_the_full_parser(monkeypatch, capsys):
    """``[--json] COMMAND ...`` reaches the command's own parser only; one
    with ``--config`` still takes the full parser."""
    parser, calls = cli._parser()[0], []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda *a: calls.append(a) or parse_args(*a))
    assert cli.main(["--json", "nf", "--", "-x1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "-x1"
    assert cli.main(["nf", "x1", "x2"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: x2\n"
    assert calls == []
    assert cli.main(["--config", str(GOLDEN / "n3.json"), "nf", "x1"]) == 0
    assert capsys.readouterr().out == "x1\n" and len(calls) == 1


def test_plain_command_lines_are_bound_without_a_parser(monkeypatch, capsys):
    """A workload-shape command line of a command with plain positionals
    calls no ``parse_args`` at all; one with ``--`` still reaches the
    command's own parser only, and so does a typed operand."""
    parser, own = cli._parser()
    calls = []
    for name, p in [("qweyl", parser), *own.items()]:
        monkeypatch.setattr(p, "parse_args",
                            lambda *a, name=name, f=p.parse_args: calls.append(name) or f(*a))
    assert set(cli._PLAIN_COMMANDS) == set(cli.COMMANDS) - {"admissible", "verify", "example"}
    for argv in (["nf", "x1*y1"], ["comm", "x1", "y1"], ["bracket", "x1", "y1"], ["limit", "x1"],
                 ["scl", "x1", "y1"], ["stratum", "z1"], ["center", ""], ["maltsiniotis", "z1"],
                 ["validate"]):
        for prefix in ([], ["--json"]):
            assert cli.main(prefix + argv) == 0, argv
    assert calls == []
    assert cli.main(["nf", "--", "-x1"]) == 0
    assert capsys.readouterr().out.endswith("-x1\n") and calls == ["nf"]
    assert cli.main(["--json", "admissible", "3"]) == 0
    assert calls == ["nf", "admissible"]
