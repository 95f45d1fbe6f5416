"""Record the CLI transcripts of this directory.

``cases.txt`` lists one command line per row, ``config<TAB>arg<TAB>arg...``.
The config is ``builtin`` (the built-in instance, n = 2) or the name of a
JSON config in this directory (``n3``, ``n4``, ``digits``); the args are the
argv after ``--config``, run through ``cli.main`` in-process exactly as
written, so a row carries its own ``--json``, ``--`` and ``--seed``.
``<config>-<command>.<fmt>`` holds, for every row of that config and
command in list order, the shown command line, stdout, stderr and exit
code; ``fmt`` is ``json`` for a row with ``--json`` before the command and
``txt`` otherwise.  ``tests/test_cli_output.py`` replays the rows and
compares bytes.  Every corpus file is UTF-8.

    PYTHONPATH=src python tests/cli_output/record.py            # rewrite the transcripts
    PYTHONPATH=src python tests/cli_output/record.py --cases    # also rebuild cases.txt

``build_cases`` makes the rows:

- ``nf`` and ``maltsiniotis``, in text and ``--json``, on random
  rescaling pairs at fixed seeds (each expression E and E with every y_i
  written as (q_i - 1)*y_i, from ``rescaling_pair``, which
  ``tests/test_cli.py`` also draws from) and on the expressions of
  ``FIXED``;
- ``stratum`` and ``center``, in text and ``--json``, on every admissible
  set of the ``builtin``, ``n3`` and ``n4`` configs, in
  ``enumerate_admissible`` order;
- the single command lines of ``COMMAND_LINES``.
"""

import contextlib
import io
import random
import shlex
import sys
from pathlib import Path

from qweyl import enumerate_admissible
from qweyl.cli import COMMANDS, main

HERE = Path(__file__).resolve().parent
# n, rank and the exponent vectors s_i of q_i, as written in eta^[...]
CONFIGS = {"builtin": (2, 2, ["1,0", "0,1"]), "n3": (3, 1, ["1", "2", "1"])}
FAMILIES = {"builtin": [(13, 2, 60), (29, 3, 8)], "n3": [(17, 2, 60), (31, 3, 8)]}  # seed, depth, pairs
FIXED = {
    "builtin": [
        "y1", "(y1+x1)^2", "y1 + (eta^[0,1]-1)^2*y2^2", "x9^0", "eta^[1]^0",
        "(eta^[1,0]-1)*y1", "x2*y2 - eta^[0,1]*y2*x2 - 1 - (eta^[1,0]-1)*y1*x1",
        "(x1+x2+z1)^8",
        "eta^[4294967296,-1099511627776]*x2^3*y2^3",
        "eta^[4294967296,-1099511627776]*x2^3*((eta^[0,1]-1)*y2)^3",
        "eta^[0,1000000000]*y2 + y2", "(y1 - y1)^400 + y1", "(eta^[1,0]-1)*(eta^[0,1]+2)*y1^2",
    ],
    "n3": [
        "y1", "(y1+x1)^2", "y1 + (eta^[2]-1)^2*y2^2", "y3*x3 + y2", "x9^0", "eta^[1,0]^0",
        "(eta^[1]-1)*y1", "x3*y3 - eta^[1]*y3*x3 - z2",
        "(x1+x2+z1)^8",
        "eta^[1099511627776]*x2^3*y2^3",
        "eta^[1099511627776]*x2^3*((eta^[2]-1)*y2)^3",
    ],
}
STRATUM_CONFIGS = {"builtin": 2, "n3": 3, "n4": 4}  # config: n
BIG = "9" * 5000  # past the interpreter's limit on digits read
# every command not run above, the verification suites at five seeds,
# products with large exponents and outputs, and the exit-2 paths: digit
# limits, non-ASCII input, non-integer exponents, nesting depth, unknown
# generators, rank mismatches, bad markers and a bad config
COMMAND_LINES = [
    ("builtin", "validate"),
    ("builtin", "verify"),
    ("builtin", "verify", "--seed", "0"),
    ("builtin", "verify", "--seed", "1"),
    ("builtin", "verify", "--seed", "7"),
    ("builtin", "verify", "--suite", "torus-relations-ideal", "--seed", "3"),
    ("builtin", "verify", "--suite", "admissible-counts"),
    ("builtin", "example", "quantum-plane"),
    ("builtin", "nf", "x2^8*y2^8"),
    ("builtin", "nf", "(y1+x1+y2+x2)^5"),
    ("builtin", "nf", "y1^100000"),
    ("builtin", "nf", "x1^3*y2^100000"),
    ("builtin", "nf", "x1^99999999999"),
    ("builtin", "nf", "(1/2*x2+3*eta^[1,0]*y2)^3*(2/3+y1)"),
    ("builtin", "comm", "x1^2*x2^3", "y1^2*y2^3"),
    ("builtin", "bracket", "(y1+x2)^3*x1", "(x1+y2+z1)^2"),
    ("builtin", "scl", "x1^2*y2*x2", "y1^2*x2+z2"),
    ("builtin", "bracket", "(1/2*y1+x2)^2*x1 - 3/4*z2", "2/3*x1*y1 - z2 + eta^[1,-1]*x2*y2"),
    ("builtin", "scl", "(x1+y1+x2+y2)^3", "(z1 - 5/3*x2)^2"),
    ("builtin", "--json", "bracket", "z2^3", "y2*x1^2"),
    ("builtin", "comm", "1/2*y1", "eta^[2,-1]*x1 + 3"),
    ("n3", "comm", "z2*y3 + x1", "x3*z1^2"),
    ("builtin", "limit", "(x1+y1)^3*z2"),
    ("builtin", "admissible", "40"),
    ("builtin", "nf", "2^20000"),
    ("builtin", "nf", BIG),
    ("builtin", "nf", "x1^²"),
    ("builtin", "nf", "x1^3/4"),
    ("builtin", "nf", "eta^[1/2,0]"),
    ("builtin", "limit", "(" * 201 + "x1" + ")" * 201),
    ("builtin", "comm", "x1", "y3"),
    ("builtin", "bracket", "x1", "eta^[1]"),
    ("builtin", "scl", "1/0", "x1"),
    ("builtin", "stratum", "z" + BIG),
    ("builtin", "center", "z1,q2"),
    ("digits", "validate"),
]


def rescaling_pair(rng: random.Random, depth: int, config: str) -> tuple[str, str]:
    """A random expression E of the CLI grammar on ``config``, and E with
    every y_i replaced by ((q_i - 1)*y_i), q_i written as eta^[s_i]."""
    n, r, qs = CONFIGS[config]
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        i = rng.randint(1, n)
        return f"y{i}", f"((eta^[{qs[i - 1]}]-1)*y{i})"
    if kind == 1:
        eta = ",".join(str(rng.randint(-2, 2)) for _ in range(r))
        leaf = rng.choice([f"x{i}" for i in range(1, n + 1)] + [f"z{i}" for i in range(n + 1)]
                          + [f"{rng.randint(0, 5)}/{rng.randint(1, 3)}", f"eta^[{eta}]"])
        return leaf, leaf
    (a, a_sub), (b, b_sub) = (rescaling_pair(rng, depth - 1, config) for _ in range(2))
    if kind == 2:
        op = rng.choice("+-")
        return f"({a} {op} {b})", f"({a_sub} {op} {b_sub})"
    if kind == 3:
        return f"{a}*{b}", f"{a_sub}*{b_sub}"
    return f"({a} + {b})^2", f"({a_sub} + {b_sub})^2"


def build_cases() -> list[tuple[str, ...]]:
    formats = ((), ("--json",))
    rows = []
    for config in CONFIGS:
        exprs = list(FIXED[config])
        for seed, depth, count in FAMILIES[config]:
            rng = random.Random(seed)
            for _ in range(count):
                exprs.extend(rescaling_pair(rng, depth, config))
        rows += [(config, *fmt, name, "--", e) for name in ("nf", "maltsiniotis")
                 for fmt in formats for e in dict.fromkeys(exprs)]
    for config, n in STRATUM_CONFIGS.items():
        rows += [(config, *fmt, name, ",".join(T.names())) for name in ("stratum", "center")
                 for fmt in formats for T in enumerate_admissible(n)]
    return list(dict.fromkeys(rows + COMMAND_LINES))


def read_cases() -> list[tuple[str, ...]]:
    text = (HERE / "cases.txt").read_text(encoding="utf-8")
    return [tuple(line.split("\t")) for line in text.splitlines()]


def command(row: tuple[str, ...]) -> str:
    return next(arg for arg in row[1:] if arg in COMMANDS)


def file_name(row: tuple[str, ...]) -> str:
    """The transcript file of ``row``: ``<config>-<command>.<fmt>``."""
    name = command(row)
    fmt = "json" if "--json" in row[1:row.index(name)] else "txt"
    return f"{row[0]}-{name}.{fmt}"


def run(row: tuple[str, ...]) -> tuple[str, int]:
    """The transcript entry of ``row`` and its exit code."""
    config, *args = row
    shown = ([] if config == "builtin" else ["--config", f"{config}.json"]) + args
    argv = ([] if config == "builtin" else ["--config", str(HERE / f"{config}.json")]) + args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"$ qweyl {shlex.join(shown)}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}--- exit {code}\n"), code


def transcripts(runs: dict) -> dict[str, str]:
    """File name to transcript, from ``{row: run(row)}`` in row order."""
    files: dict[str, list[str]] = {}
    for row, (entry, _) in runs.items():
        files.setdefault(file_name(row), []).append(entry)
    return {name: "".join(entries) for name, entries in files.items()}


if __name__ == "__main__":
    if "--cases" in sys.argv[1:]:
        (HERE / "cases.txt").write_text("".join("\t".join(c) + "\n" for c in build_cases()),
                                        encoding="utf-8")
    for name, text in transcripts({row: run(row) for row in read_cases()}).items():
        (HERE / name).write_text(text, encoding="utf-8")
