"""Record the ``nf`` / ``maltsiniotis`` transcripts of this directory.

``cases.txt`` lists one case per line, ``config<TAB>command<TAB>expr``, with
config ``builtin`` (the built-in instance, n = 2) or ``n3``
(``tests/stratum_output/n3.json``).  Each case runs in text and in
``--json`` format; ``<config>-<command>.<fmt>`` holds, for every case of
that config and command in list order, the command line, stdout, stderr
and exit code.  ``tests/test_cli_output.py`` replays the list through
``cli.main`` and compares bytes.

    PYTHONPATH=src python tests/cli_output/record.py            # rewrite the transcripts
    PYTHONPATH=src python tests/cli_output/record.py --cases    # also rebuild cases.txt

The case list is the random rescaling-pair families of
``tests/test_cli.py`` at fixed seeds (each expression E and E with every
y_i written as (q_i - 1)*y_i, through both commands) and the fixed cases
of ``FIXED``.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
N3_CONFIG = HERE.parent / "stratum_output" / "n3.json"
# n, rank and the exponent vectors s_i of q_i, as written in eta^[...]
CONFIGS = {"builtin": (2, 2, ["1,0", "0,1"]), "n3": (3, 1, ["1", "2", "1"])}
COMMANDS = ("nf", "maltsiniotis")
FORMATS = ("txt", "json")
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


def rescaling_pair(rng: random.Random, depth: int, config: str) -> tuple[str, str]:
    """``_rescaling_pair`` of tests/test_cli.py for ``config``: a random
    expression E and E with every y_i replaced by ((q_i - 1)*y_i)."""
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


def build_cases() -> list[tuple[str, str, str]]:
    cases = []
    for config in CONFIGS:
        exprs = list(FIXED[config])
        for seed, depth, count in FAMILIES[config]:
            rng = random.Random(seed)
            for _ in range(count):
                exprs.extend(rescaling_pair(rng, depth, config))
        cases += [(config, command, e) for command in COMMANDS for e in dict.fromkeys(exprs)]
    return cases


def read_cases() -> list[tuple[str, str, str]]:
    return [tuple(line.split("\t")) for line in (HERE / "cases.txt").read_text().splitlines()]


def transcript(cases, config: str, command: str, fmt: str) -> str:
    """The transcript of every case of ``config`` and ``command`` in ``fmt``."""
    from qweyl.cli import main

    flags = (["--config", "n3.json"] if config == "n3" else []) + (["--json"] if fmt == "json" else [])
    parts = []
    for case_config, case_command, expr in cases:
        if (case_config, case_command) != (config, command):
            continue
        argv = flags + [command, "--", expr]
        if config == "n3":
            argv[1] = str(N3_CONFIG)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts.append(f"$ qweyl {' '.join(flags)}{' ' if flags else ''}{command} -- '{expr}'\n"
                     f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n")
    return "".join(parts)


def transcript_files() -> list[tuple[str, str, str]]:
    return [(config, command, fmt) for config in CONFIGS for command in COMMANDS for fmt in FORMATS]


if __name__ == "__main__":
    if "--cases" in sys.argv[1:]:
        (HERE / "cases.txt").write_text("".join("\t".join(c) + "\n" for c in build_cases()))
    cases = read_cases()
    for case in transcript_files():
        (HERE / "{}-{}.{}".format(*case)).write_text(transcript(cases, *case))
