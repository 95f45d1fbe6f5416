"""``nf`` and ``maltsiniotis`` print exactly their recorded stdout and
stderr, and exit with the recorded code, in text and ``--json``, on the
built-in config (n = 2) and the n = 3 config.

The cases are listed in ``tests/cli_output/cases.txt``: random
rescaling-pair families at fixed seeds, localization errors (a multi-term
coefficient, a quotient reached after one division, a 10^9 gap between two
exponents, and ``(y1 - y1)^400 + y1``), the bad bases under ``^0``,
``(x1+x2+z1)^8`` and exponent entries of 2^32 and 2^40.
``tests/cli_output/record.py`` rewrites the transcripts from the current
code.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "cli_output"
_spec = importlib.util.spec_from_file_location("cli_output_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)
CASES = record.transcript_files()


@pytest.fixture(scope="module")
def cases():
    return record.read_cases()


@pytest.mark.parametrize("config, command, fmt", CASES,
                         ids=["-".join(case) for case in CASES])
def test_cli_output_is_pinned(cases, config, command, fmt):
    expected = (GOLDEN / f"{config}-{command}.{fmt}").read_text()
    assert record.transcript(cases, config, command, fmt) == expected
