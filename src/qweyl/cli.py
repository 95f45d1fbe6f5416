"""Command-line front end.

Commands operate on an instance described by a JSON configuration file
(``--config``); a small built-in two-pair instance is used when none is
given.  Exit codes: 0 success, 1 verification failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .exprs import ExprEvalError, ExprSyntaxError, eval_free, eval_weyl, parse_expr
from .interp import ParameterDomainError, build_e_family
from .poisson import gamma1, pb_bracket, semiclassical_bracket
from .quantum_plane import demo_lines
from .scalars import RankMismatchError
from .spectra import (
    AdmissibleSet,
    center_lattice,
    enumerate_admissible,
    is_admissible,
    stratum_report,
    torus_matrix_q,
)
from .suites import DEFAULT_SEED, run_suites
from .weyl import LocalizationRequiredError, WeylParams, from_maltsiniotis

USAGE_ERROR = 2
VERIFY_ERROR = 1

# argparse reads an argument that starts with '-' as an option, so printed
# normal forms such as "-5/12*x2" go back in after a "--" separator
EXPR_HELP = "element expression; put '--' before one that starts with '-'"

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
    if isinstance(value, int):
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
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _int(value, field: str) -> int:
    """An integer config field: a JSON integer or a decimal string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"config field {field!r} must be an integer, got {value!r}")


def _require(block: dict, fields: Sequence[str], where: str) -> None:
    for field in fields:
        if field not in block:
            raise ConfigError(f"{where} is missing field {field!r}")


def params_from_config(config: dict) -> WeylParams:
    _require(config, ("n", "r", "q_exponents", "lambda_exponents"), "config")
    n = _int(config["n"], "n")
    r = _int(config["r"], "r")
    try:
        return WeylParams.from_coordinate_matrices(
            n, r, config["q_exponents"], config["lambda_exponents"]
        )
    except (ValueError, TypeError, LookupError) as exc:
        raise ConfigError(f"invalid instance data: {exc}") from exc


def concrete_from_config(config: dict, params: WeylParams):
    block = config.get("concrete")
    if block is None:
        raise ConfigError("config has no 'concrete' block")
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
    return q, build_e_family(q, etas, mus)


def parse_tspec(text: str, n: int) -> AdmissibleSet:
    markers = []
    body = text.strip()
    if body:
        for piece in body.split(","):
            piece = piece.strip()
            if len(piece) < 2 or piece[0] not in "zyx" or not piece[1:].isdigit():
                raise ConfigError(f"bad marker {piece!r} in set specification")
            markers.append((piece[0], int(piece[1:])))
    try:
        T = AdmissibleSet.from_markers(n, markers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not is_admissible(T):
        raise ConfigError(f"set {T} is not admissible")
    return T


def _parse(text: str, params: WeylParams):
    return eval_weyl(parse_expr(text), params)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _instance_summary(config: dict, params: WeylParams) -> dict:
    return {
        "n": params.n,
        "r": params.r,
        "q_exponents": [list(v) for v in params.qexp],
        "source": "builtin-default" if config is DEFAULT_CONFIG else "config",
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact computations in multi-parameter quantized Weyl "
        "algebras and their Poisson limits.",
    )
    parser.add_argument("--config", help="path to a JSON instance configuration")
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable record"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seed for randomized suites"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="check the configuration invariants")
    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expr", help=EXPR_HELP)
    p = sub.add_parser("comm", help="commutator of two expressions")
    p.add_argument("a", help=EXPR_HELP)
    p.add_argument("b", help=EXPR_HELP)
    p = sub.add_parser("bracket", help="Poisson bracket of two expressions")
    p.add_argument("a", help=EXPR_HELP)
    p.add_argument("b", help=EXPR_HELP)
    p = sub.add_parser("limit", help="classical limit of an expression")
    p.add_argument("expr", help=EXPR_HELP)
    p = sub.add_parser(
        "scl", help="semiclassical bracket of two expressions, with consistency check"
    )
    p.add_argument("a", help=EXPR_HELP)
    p.add_argument("b", help=EXPR_HELP)
    p = sub.add_parser("admissible", help="enumerate admissible sets")
    p.add_argument("n", type=int)
    p = sub.add_parser("stratum", help="full report for one stratum")
    p.add_argument("tspec", help="comma list of markers, e.g. 'z1,z2,y2' ('' = empty)")
    p = sub.add_parser("center", help="center lattice of one stratum")
    p.add_argument("tspec")
    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", action="append", help="run only the named suite(s)")
    p.add_argument("--seed", type=int, default=None, dest="suite_seed")
    p = sub.add_parser("example", help="run a worked example")
    p.add_argument("name", choices=["quantum-plane"])
    p = sub.add_parser(
        "maltsiniotis", help="rescale an element of the unrescaled presentation"
    )
    p.add_argument("expr", help=EXPR_HELP)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (ConfigError, ExprSyntaxError, ExprEvalError, RankMismatchError,
            ParameterDomainError, LocalizationRequiredError) as exc:
        record = {"command": args.command, "error": str(exc)}
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _dispatch(args) -> int:
    command = args.command

    if command == "example":
        lines = demo_lines()
        _emit(args, {"command": "example", "result": lines, "checks": []}, lines)
        return 0

    if command == "admissible":
        if args.n < 1:
            raise ConfigError("n must be positive")
        sets = enumerate_admissible(args.n)
        names = [",".join(T.names()) or "(empty)" for T in sets]
        _emit(
            args,
            {"command": "admissible", "n": args.n, "count": len(sets), "result": names},
            [f"admissible sets of M_{args.n}: {len(sets)}"] + [f"  {s}" for s in names],
        )
        return 0

    if command == "verify":
        seed = args.suite_seed if args.suite_seed is not None else args.seed
        if seed is None and args.config is not None:
            config_seed = load_config(args.config).get("seed")
            seed = _int(config_seed, "seed") if config_seed is not None else None
        if seed is None:
            seed = DEFAULT_SEED
        try:
            results = run_suites(args.suite, seed)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        checks = [
            {"name": s.name, "passed": s.passed, "checks": s.checks, "detail": s.detail}
            for s in results
        ]
        ok = all(s.passed for s in results)
        human = [
            f"{'PASS' if s.passed else 'FAIL'} {s.name} ({s.checks} checks) {s.detail}"
            for s in results
        ] + [f"{'OK' if ok else 'FAILED'}: {sum(s.passed for s in results)}/{len(results)} suites"]
        _emit(
            args,
            {"command": "verify", "seed": seed, "result": ok, "checks": checks},
            human,
        )
        return 0 if ok else VERIFY_ERROR

    config = load_config(args.config)
    params = params_from_config(config)
    instance = _instance_summary(config, params)

    if command == "validate":
        checks = [{"name": "instance-invariants", "passed": True, "detail": ""}]
        concrete_note = "no concrete block"
        if config.get("concrete") is not None:
            q, e_polys = concrete_from_config(config, params)
            concrete_note = (
                "concrete block ok: "
                + ", ".join(f"e{k + 1} = {e}" for k, e in enumerate(e_polys))
            )
            checks.append({"name": "concrete-block", "passed": True, "detail": concrete_note})
        _emit(
            args,
            {"command": "validate", "instance": instance, "result": True, "checks": checks},
            [f"instance ok: n={params.n}, r={params.r}", concrete_note],
        )
        return 0

    if command == "nf":
        elem = _parse(args.expr, params)
        text = str(elem)
        _emit(
            args,
            {"command": "nf", "instance": instance, "result": text, "checks": []},
            [text],
        )
        return 0

    if command == "comm":
        a, b = _parse(args.a, params), _parse(args.b, params)
        c = a * b - b * a
        _emit(
            args,
            {"command": "comm", "instance": instance, "result": str(c), "checks": []},
            [str(c)],
        )
        return 0

    if command == "bracket":
        a, b = _parse(args.a, params), _parse(args.b, params)
        res = pb_bracket(gamma1(a), gamma1(b))
        _emit(
            args,
            {"command": "bracket", "instance": instance, "result": str(res), "checks": []},
            [str(res)],
        )
        return 0

    if command == "limit":
        res = gamma1(_parse(args.expr, params))
        _emit(
            args,
            {"command": "limit", "instance": instance, "result": str(res), "checks": []},
            [str(res)],
        )
        return 0

    if command == "scl":
        a, b = _parse(args.a, params), _parse(args.b, params)
        scl = semiclassical_bracket(a, b)
        table = pb_bracket(gamma1(a), gamma1(b))
        consistent = scl == table
        verdict = "CONSISTENT" if consistent else "INCONSISTENT"
        _emit(
            args,
            {
                "command": "scl",
                "instance": instance,
                "result": str(scl),
                "checks": [{"name": "bracket-consistency", "passed": consistent}],
            },
            [f"{scl}; {verdict}"],
        )
        return 0 if consistent else VERIFY_ERROR

    if command == "stratum":
        T = parse_tspec(args.tspec, params.n)
        report = stratum_report(params, T)
        d = report.to_dict()
        human = [
            f"stratum {','.join(report.markers) or '(empty)'}",
            f"  generators: {', '.join(report.generators)}",
            "  commutation exponents: " + str(d["qmatrix"]),
            "  bracket forms: " + str(d["pmatrix"]),
            f"  center lattice rank: {report.center_rank}"
            + (" (center trivial)" if report.center_trivial else ""),
            f"  center basis: {d['center_basis']}",
        ]
        _emit(
            args,
            {"command": "stratum", "instance": instance, "result": d, "checks": []},
            human,
        )
        return 0

    if command == "center":
        T = parse_tspec(args.tspec, params.n)
        lattice = center_lattice(torus_matrix_q(params, T), params.r)
        d = {
            "size": lattice.size,
            "rank": lattice.rank,
            "basis": [list(v) for v in lattice.basis],
            "trivial": lattice.is_trivial,
        }
        _emit(
            args,
            {"command": "center", "instance": instance, "result": d, "checks": []},
            [
                f"center lattice rank {lattice.rank} of Z^{lattice.size}"
                + (" (trivial: scalars only)" if lattice.is_trivial else ""),
                f"basis: {d['basis']}",
            ],
        )
        return 0

    if command == "maltsiniotis":
        free = eval_free(parse_expr(args.expr), params)
        image = from_maltsiniotis(params, free)
        _emit(
            args,
            {
                "command": "maltsiniotis",
                "instance": instance,
                "result": str(image),
                "checks": [],
            },
            [str(image)],
        )
        return 0

    raise ConfigError(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
