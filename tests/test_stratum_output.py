"""``stratum`` and ``center`` print exactly their recorded output, in text
and ``--json``, on every admissible set of the built-in config (n = 2) and
of the n = 3 and n = 4 configs ``tests/stratum_output/n3.json`` and
``n4.json``.

Each file under ``tests/stratum_output/`` is the transcript of one command
in one format over all sets of one config, in ``enumerate_admissible``
order: a ``$ qweyl ...`` line, then the command's stdout.  Running this file
as a script rewrites the transcripts from the current code.
"""

import contextlib
import io
from pathlib import Path

import pytest

from qweyl import enumerate_admissible
from qweyl.cli import main

GOLDEN = Path(__file__).resolve().parent / "stratum_output"
CONFIGS = {"builtin": (2, None), "n3": (3, "n3.json"), "n4": (4, "n4.json")}  # n, config file in GOLDEN
CASES = [(config, command, fmt) for config in CONFIGS
         for command in ("stratum", "center") for fmt in ("txt", "json")]


def transcript(config: str, command: str, fmt: str) -> str:
    n, config_file = CONFIGS[config]
    flags = (["--config", config_file] if config_file else []) + (["--json"] if fmt == "json" else [])
    parts = []
    for T in enumerate_admissible(n):
        shown = flags + [command, ",".join(T.names())]
        argv = list(shown)
        if config_file:
            argv[1] = str(GOLDEN / config_file)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (0, ""), (shown, code, err.getvalue())
        parts.append("$ qweyl " + " ".join(shown[:-1]) + f' "{shown[-1]}"\n' + out.getvalue())
    return "".join(parts)


@pytest.mark.parametrize("config, command, fmt", CASES,
                         ids=["-".join(case) for case in CASES])
def test_stratum_output_is_pinned(config, command, fmt):
    expected = (GOLDEN / f"{config}-{command}.{fmt}").read_text()
    assert transcript(config, command, fmt) == expected


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / "{}-{}.{}".format(*case)).write_text(transcript(*case))
