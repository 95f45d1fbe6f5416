"""Command-line front end.

Commands operate on an instance described by a JSON configuration file
(``--config``); a small built-in two-pair instance is used when none is
given.  Each command is one row of ``COMMANDS``.  Exit codes: 0 success,
1 a check in the record failed, 2 usage or configuration error, 3 internal
error or output that could not be written.  Plain command lines skip
argparse, and ``--json`` records json's pure-Python encoder, to the same result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Callable, Sequence

from . import DEFAULT_SEED
from .exprs import ExprEvalError, ExprSyntaxError, eval_rescaled, eval_weyl, parse_expr
from .poisson import gamma1, pb_bracket, semiclassical_bracket
from .scalars import DigitLimitError, RankMismatchError
from .weyl import LocalizationRequiredError, WeylParams, from_maltsiniotis, wa_commutator

if TYPE_CHECKING:
    from .spectra import AdmissibleSet

VERIFY_ERROR = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3

# argparse reads an argument that starts with '-' as an option, so printed
# normal forms such as "-5/12*x2" go back in after a "--" separator
EXPR_HELP = "element expression; put '--' before one that starts with '-'"

# `admissible N` lists at most this many sets (N <= 9): the count grows
# about 3.4-fold per N, and N = 11 takes seconds and hundreds of MB
MAX_ADMISSIBLE_SETS = 100_000

DEFAULT_CONFIG = {
    "n": 2,
    "r": 2,
    "q_exponents": [[1, 0], [0, 1]],
    "lambda_exponents": [
        [[0, 1], [-1, 0]],
        [[0, 0], [0, 0]],
    ],
    "concrete": {"q": "2", "eta": ["3", "5/2"], "mu": ["1", "1/2"]},
}


class ConfigError(ValueError):
    pass


def _rat(value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational literal {value!r}") from exc
    raise ConfigError(
        f"rationals must be integers or 'p/q' strings, got {value!r}"
    )


def load_config(path: str | None) -> dict:
    if path is None:
        return DEFAULT_CONFIG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ValueError:  # an integer past the interpreter's limit on digits read
        raise ConfigError(
            f"config has an integer with more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _int(value, field: str) -> int:
    """An integer config field: a JSON integer, or a string of decimal
    digits with an optional sign."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        try:
            return int(value)
        except ValueError:  # past the interpreter's limit on digits read
            raise ConfigError(
                f"config field {field!r} has more than {sys.get_int_max_str_digits()} digits"
            ) from None
    raise ConfigError(f"config field {field!r} must be an integer, got {value!r}")


def _int_entries(value, field: str):
    """A nested list of integer config entries, each checked by ``_int``."""
    if isinstance(value, list):
        return [_int_entries(v, f"{field}[{k}]") for k, v in enumerate(value)]
    return _int(value, field)


def _require(block: dict, fields: Sequence[str], where: str) -> None:
    for field in fields:
        if field not in block:
            raise ConfigError(f"{where} is missing field {field!r}")


def params_from_config(config: dict) -> WeylParams:
    _require(config, ("n", "r", "q_exponents", "lambda_exponents"), "config")
    n = _int(config["n"], "n")
    r = _int(config["r"], "r")
    qexp = _int_entries(config["q_exponents"], "q_exponents")
    lexp = _int_entries(config["lambda_exponents"], "lambda_exponents")
    try:
        return WeylParams.from_coordinate_matrices(n, r, qexp, lexp)
    except (ValueError, TypeError, LookupError) as exc:
        raise ConfigError(f"invalid instance data: {exc}") from exc


def concrete_from_config(config: dict, params: WeylParams):
    from .interp import ParameterDomainError, build_e_family

    block = config["concrete"]
    if not isinstance(block, dict):
        raise ConfigError("config field 'concrete' must be a JSON object")
    _require(block, ("q", "eta", "mu"), "concrete block")
    for field in ("eta", "mu"):
        if not isinstance(block[field], list):
            raise ConfigError(f"concrete field {field!r} must be a list")
    q = _rat(block["q"])
    etas = [_rat(v) for v in block["eta"]]
    mus = [_rat(v) for v in block["mu"]]
    if len(etas) != params.r or len(mus) != params.r:
        raise ConfigError(f"concrete eta/mu lists must have length r={params.r}")
    try:
        return build_e_family(q, etas, mus)
    except ParameterDomainError as exc:
        raise ConfigError(str(exc)) from exc


def parse_tspec(text: str, n: int) -> AdmissibleSet:
    from .spectra import AdmissibleSet, is_admissible

    markers = []
    body = text.strip()
    if body:
        for piece in body.split(","):
            piece = piece.strip()
            if not re.fullmatch(r"[zyx][0-9]+", piece):
                raise ConfigError(f"bad marker {piece!r} in set specification")
            try:
                markers.append((piece[0], int(piece[1:])))
            except ValueError:  # past the interpreter's limit on digits read
                raise ConfigError(f"bad marker in set specification: {piece[0]} index with "
                                  f"more than {sys.get_int_max_str_digits()} digits") from None
    try:
        T = AdmissibleSet.from_markers(n, markers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not is_admissible(T):
        raise ConfigError(f"set {T} is not admissible")
    return T


def _parse(text: str, params: WeylParams):
    return eval_weyl(parse_expr(text), params)


# -- commands ----------------------------------------------------------------------
# A handler takes the parsed arguments, the instance and its config (both None
# for a command that does not run on the instance) and returns the command's
# own record fields and its text lines.


def _plain(value) -> tuple[dict, list[str]]:
    text = str(value)
    return {"result": text, "checks": []}, [text]


def _validate(args, params, config):
    checks = [{"name": "instance-invariants", "passed": True, "detail": ""}]
    note = "no concrete block"
    if config.get("concrete") is not None:
        e_polys = concrete_from_config(config, params)
        note = "concrete block ok: " + ", ".join(f"e{k + 1} = {e}" for k, e in enumerate(e_polys))
        checks.append({"name": "concrete-block", "passed": True, "detail": note})
    lines = [f"instance ok: n={params.n}, r={params.r}", note]
    return {"result": True, "checks": checks}, lines


def _nf(args, params, config):
    return _plain(_parse(args.expr, params))


def _comm(args, params, config):
    a, b = _parse(args.a, params), _parse(args.b, params)
    return _plain(wa_commutator(a, b))


def _bracket(args, params, config):
    a, b = _parse(args.a, params), _parse(args.b, params)
    return _plain(pb_bracket(gamma1(a), gamma1(b)))


def _limit(args, params, config):
    return _plain(gamma1(_parse(args.expr, params)))


def _scl(args, params, config):
    a, b = _parse(args.a, params), _parse(args.b, params)
    scl = semiclassical_bracket(a, b)
    consistent = scl == pb_bracket(gamma1(a), gamma1(b))
    checks = [{"name": "bracket-consistency", "passed": consistent}]
    verdict = "CONSISTENT" if consistent else "INCONSISTENT"
    return {"result": str(scl), "checks": checks}, [f"{scl}; {verdict}"]


def _admissible(args, params, config):
    from .spectra import count_admissible, enumerate_admissible

    if args.n < 1:
        raise ConfigError("n must be positive")
    # past n = 2000 the exact count is slow to compute and print; it exceeds
    # 3^(n-1), as each set of M_{n-1} with z_{n-1} grows 3 ways with z_n
    huge = args.n > 2000
    count = f"more than 3^{args.n - 1}" if huge else count_admissible(args.n)
    if huge or count > MAX_ADMISSIBLE_SETS:
        raise ConfigError(
            f"M_{args.n} has {count} admissible sets, more than the "
            f"{MAX_ADMISSIBLE_SETS} this command lists"
        )
    names = [",".join(T.names()) or "(empty)" for T in enumerate_admissible(args.n)]
    lines = [f"admissible sets of M_{args.n}: {len(names)}"] + [f"  {s}" for s in names]
    return {"n": args.n, "count": len(names), "result": names}, lines


def _stratum(args, params, config):
    from .spectra import stratum_report

    report = stratum_report(params, parse_tspec(args.tspec, params.n))
    d = report.to_dict()
    return {"result": d, "checks": []}, [
        f"stratum {','.join(report.markers) or '(empty)'}",
        f"  generators: {', '.join(report.generators)}",
        "  commutation exponents: " + str(d["qmatrix"]),
        "  bracket forms: " + str(d["pmatrix"]),
        f"  center lattice rank: {report.center_rank}"
        + (" (center trivial)" if report.center_trivial else ""),
        f"  center basis: {d['center_basis']}",
    ]


def _center(args, params, config):
    from .spectra import center_lattice, torus_matrix_q

    T = parse_tspec(args.tspec, params.n)
    lattice = center_lattice(torus_matrix_q(params, T), params.r)
    d = {
        "size": lattice.size,
        "rank": lattice.rank,
        "basis": [list(v) for v in lattice.basis],
        "trivial": lattice.is_trivial,
    }
    return {"result": d, "checks": []}, [
        f"center lattice rank {lattice.rank} of Z^{lattice.size}"
        + (" (trivial: scalars only)" if lattice.is_trivial else ""),
        f"basis: {d['basis']}",
    ]


def _verify(args, params, config):
    from .suites import run_suites  # loaded here: no other command needs it

    seed = args.seed
    if seed is None:
        config_seed = load_config(args.config).get("seed")
        seed = DEFAULT_SEED if config_seed is None else _int(config_seed, "seed")
    try:
        results = run_suites(args.suite, seed)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    checks = [asdict(s) for s in results]
    ok = all(s.passed for s in results)
    lines = [
        f"{'PASS' if s.passed else 'FAIL'} {s.name} ({s.checks} checks) {s.detail}"
        for s in results
    ] + [f"{'OK' if ok else 'FAILED'}: {sum(s.passed for s in results)}/{len(results)} suites"]
    return {"seed": seed, "result": ok, "checks": checks}, lines


def _example(args, params, config):
    from .quantum_plane import demo_lines

    lines = demo_lines()
    return {"result": lines, "checks": []}, lines


def _maltsiniotis(args, params, config):
    return _plain(from_maltsiniotis(eval_rescaled(parse_expr(args.expr), params)))


@dataclass(frozen=True)
class Command:
    help: str
    handler: Callable  # (args, params, config) -> (record fields, text lines)
    arguments: tuple = ()  # (name or flag, add_argument keywords) pairs
    on_instance: bool = True


EXPR_ARG = ("expr", {"help": EXPR_HELP})
PAIR_ARGS = (("a", {"help": EXPR_HELP}), ("b", {"help": EXPR_HELP}))
TSPEC_HELP = "comma list of markers, e.g. 'z1,z2,y2' ('' = empty)"
VERIFY_ARGS = (
    ("--suite", {"action": "append", "help": "run only the named suite(s)"}),
    ("--seed", {"type": int, "default": None, "help": "seed for randomized suites"}),
)

COMMANDS = {
    "validate": Command("check the configuration invariants", _validate),
    "nf": Command("normal form of an expression", _nf, (EXPR_ARG,)),
    "comm": Command("commutator of two expressions", _comm, PAIR_ARGS),
    "bracket": Command("Poisson bracket of two expressions", _bracket, PAIR_ARGS),
    "limit": Command("classical limit of an expression", _limit, (EXPR_ARG,)),
    "scl": Command(
        "semiclassical bracket of two expressions, with consistency check", _scl, PAIR_ARGS
    ),
    "admissible": Command(
        "enumerate admissible sets", _admissible, (("n", {"type": int}),), on_instance=False
    ),
    "stratum": Command("full report for one stratum", _stratum, (("tspec", {"help": TSPEC_HELP}),)),
    "center": Command("center lattice of one stratum", _center, (("tspec", {}),)),
    "verify": Command("run the verification suites", _verify, VERIFY_ARGS, on_instance=False),
    "example": Command(
        "run a worked example", _example, (("name", {"choices": ["quantum-plane"]}),),
        on_instance=False,
    ),
    "maltsiniotis": Command(
        "rescale an element of the unrescaled presentation", _maltsiniotis, (EXPR_ARG,)
    ),
}

# each command whose arguments are all plain positionals (no type, choices or flag)
_PLAIN_COMMANDS = {name: tuple(arg for arg, _ in c.arguments) for name, c in COMMANDS.items()
                   if all(a[0] != "-" and kw.keys() <= {"help"} for a, kw in c.arguments)}


class _ArgvError(ValueError):
    """A malformed command line, with argparse's one-line message."""


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that ``main`` reports them as
    one line or one record instead of the usage block; the subcommands'
    parsers are of the same class.  ``-h`` still prints its help and exits."""

    def error(self, message: str):
        raise _ArgvError(message)


USAGE_ERRORS = (_ArgvError, ConfigError, ExprSyntaxError, ExprEvalError, RankMismatchError,
                LocalizationRequiredError, DigitLimitError)


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser for every command in ``COMMANDS``, and each command's own
    parser (its subparser) by name, built on first use."""
    parser = _ArgumentParser(
        prog="qweyl",
        description="Exact computations in multi-parameter quantized Weyl "
        "algebras and their Poisson limits.",
    )
    parser.add_argument("--config", help="path to a JSON instance configuration")
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable record"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    own = {}
    for name, command in COMMANDS.items():
        p = own[name] = sub.add_parser(name, help=command.help)
        for arg, options in command.arguments:
            p.add_argument(arg, **options)
    return parser, own


def _parse_argv(argv: list[str], args: argparse.Namespace) -> None:
    """Parse ``argv`` into ``args``.  ``COMMAND ...`` and ``--json COMMAND
    ...`` go straight to the command's own parser, with ``json``, ``config``
    and ``command`` set as the full parser sets them: before the command it
    holds only ``-h``, ``--config`` and ``--json``, and it hands everything
    after the command to that same parser.  Every other argv takes the full
    parser, and so does one with an argument starting ``--=``, which the
    full parser may refuse first, as an ambiguous abbreviation of its own
    options.  A command of ``_PLAIN_COMMANDS`` with exactly its operands,
    none starting with ``-``, is bound here: argparse stores each as it is."""
    parser, own = _parser()
    start = 1 if argv[:1] == ["--json"] else 0
    name = argv[start] if len(argv) > start else None
    if name not in own or any(a.startswith("--=") for a in argv):
        parser.parse_args(argv, args)
        return
    args.json, args.config, args.command = start == 1, None, name
    operands, dests = argv[start + 1:], _PLAIN_COMMANDS.get(name)
    if dests is not None and len(dests) == len(operands) and not any(
            a.startswith("-") for a in operands):
        vars(args).update(zip(dests, operands))
    else:
        own[name].parse_args(operands, args)


def _render(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str keys and str, int,
    bool, None, list, tuple and dict values; other values and keys raise TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_render(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"{type(value).__name__} is left to json")


# the instance of the last call on an instance; a call on a config of the same repr (which,
# unlike ==, tells 1, 1.0 and True apart) builds nothing and reuses it with its memos
_held: WeylParams | None = None
_held_key: str | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _held, _held_key
    # filled as far as parsing gets: --json and the command come before
    # their arguments, so a malformed command line finds them set if read
    args = argparse.Namespace(json=False, command=None)
    try:
        _parse_argv(sys.argv[1:] if argv is None else list(argv), args)
        command = COMMANDS[args.command]
        record = {"command": args.command}
        params = config = None
        if command.on_instance:
            config = load_config(args.config)
            key = repr(config)
            if _held is None or key != _held_key:
                _held, _held_key = params_from_config(config), key
            params = _held
            record["instance"] = {
                "n": params.n,
                "r": params.r,
                "q_exponents": [list(v) for v in params.qexp],
                "source": "builtin-default" if config is DEFAULT_CONFIG else "config",
            }
        fields, lines = command.handler(args, params, config)
        record.update(fields)
        code = VERIFY_ERROR if any(not c["passed"] for c in record.get("checks", ())) else 0
    except SystemExit as exc:  # -h, after printing its help
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except USAGE_ERRORS as exc:
        record, code = {"command": args.command, "error": str(exc)}, USAGE_ERROR
    except Exception as exc:  # anything else is a defect; exit 1 keeps meaning "a check failed"
        error = f"internal error: {type(exc).__name__}: {exc}"
        record, code = {"command": args.command, "error": error}, INTERNAL_ERROR
    try:
        if args.json:
            try:
                print(_render(record))
            except TypeError:  # a value or key it leaves to json
                print(json.dumps(record, indent=2, sort_keys=True))
        elif "error" in record:
            print(f"error: {record['error']}", file=sys.stderr)
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk: no traceback, and not exit 1
        _discard_stdout()
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        except OSError:
            pass
        return INTERNAL_ERROR
    return code


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the
    interpreter's flush of the unwritten buffer at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
