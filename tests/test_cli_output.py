"""Every command line of ``tests/cli_output/cases.txt`` prints exactly its
recorded stdout and stderr, and exits with the recorded code.

The rows pin ``nf`` and ``maltsiniotis`` on random rescaling-pair families
and fixed cases (localization errors, bad bases under ``^0``, exponent
entries of 2^32 and 2^40), ``stratum`` and ``center`` on every admissible
set of the n = 2, 3 and 4 configs, every other command, ``verify`` at five
seeds, and an exit-2 row for each command that reads an expression or a
marker list.  ``tests/cli_output/record.py`` rewrites the transcripts from
the current code.
"""

import importlib.util
from pathlib import Path

import pytest

from qweyl.cli import COMMANDS

GOLDEN = Path(__file__).resolve().parent / "cli_output"
_spec = importlib.util.spec_from_file_location("cli_output_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)
FILES = sorted({record.file_name(row) for row in record.read_cases()})


@pytest.fixture(scope="module")
def runs():
    return {row: record.run(row) for row in record.read_cases()}


@pytest.fixture(scope="module")
def transcripts(runs):
    return record.transcripts(runs)


@pytest.mark.parametrize("name", FILES, ids=[name.replace(".", "-") for name in FILES])
def test_cli_output_is_pinned(transcripts, name):
    assert transcripts[name] == (GOLDEN / name).read_text(encoding="utf-8")


def test_rows_replayed_in_reverse_give_their_transcripts():
    """The rows that run on an instance, replayed from last to first in one
    process, print their recorded transcripts: no output depends on what
    earlier calls left in the memos of the instance the CLI holds."""
    cases = record.read_cases()
    rows = [row for row in cases if COMMANDS[record.command(row)].on_instance]
    assert {record.command(row) for row in set(cases) - set(rows)} == {
        "admissible", "example", "verify"}
    replayed = {row: record.run(row) for row in reversed(rows)}
    transcripts = record.transcripts({row: replayed[row] for row in rows})
    for name, text in transcripts.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name


def test_cases_are_the_recorders_rows():
    """``cases.txt`` holds exactly the rows of ``record.build_cases``, in
    order, so an edit to the recorder's row lists cannot drop rows from the
    corpus unless ``cases.txt`` is rebuilt with it."""
    assert record.read_cases() == record.build_cases()


def test_corpus_pins_every_command(runs):
    assert {record.command(row) for row in runs} == set(COMMANDS)
    readers = {name for name, command in COMMANDS.items()
               if {arg for arg, _ in command.arguments} & {"expr", "a", "b", "tspec"}}
    exit_2 = {record.command(row) for row, (_, code) in runs.items() if code == 2}
    assert readers - exit_2 == set()
    assert {p.name for p in GOLDEN.glob("*-*.*")} == set(FILES)  # no stale transcript
