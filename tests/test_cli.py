import dataclasses
import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from qweyl import cli, exprs, spectra, weyl
from qweyl.cli import main
from qweyl.quantum_plane import PLANE, PlaneElement
from qweyl.scalars import DigitLimitError
from qweyl.weyl import StraighteningEngine

# the transcript recorder, for its random rescaling-pair expressions
_spec = importlib.util.spec_from_file_location(
    "cli_output_record", Path(__file__).resolve().parent / "cli_output" / "record.py")
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_default(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "instance ok" in out


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "x1*y1")
    assert code == 0
    assert out.strip() == "(-1 + eta^[1,0]) + eta^[1,0]*y1*x1"


def test_nf_json(capsys):
    code, out, _ = run(capsys, "--json", "nf", "x2*y1")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "nf"
    assert record["result"] == "eta^[2,0]*y1*x2"
    assert record["instance"]["n"] == 2


def test_comm_and_limit(capsys):
    code, out, _ = run(capsys, "comm", "x1", "y1")
    assert code == 0
    assert "eta^[1,0]" in out
    code, out, _ = run(capsys, "limit", "x1*y1")
    assert code == 0
    assert out.strip() == "y1*x1"
    code, out, _ = run(capsys, "limit", "z2")
    assert code == 0
    assert out.strip() == "1 + y1*x1 + y2*x2"


def test_bracket_and_scl(capsys):
    code, out, _ = run(capsys, "bracket", "x1", "y1")
    assert code == 0
    assert out.strip() == "mu1 + mu1*y1*x1"
    code, out, _ = run(capsys, "scl", "x1", "y1")
    assert code == 0
    assert out.strip() == "mu1 + mu1*y1*x1; CONSISTENT"


def test_admissible(capsys):
    code, out, _ = run(capsys, "admissible", "1")
    assert code == 0
    assert "admissible sets of M_1: 2" in out
    code, out, _ = run(capsys, "--json", "admissible", "2")
    assert json.loads(out)["count"] == 6


def test_admissible_refuses_past_the_ceiling(capsys):
    code, out, err = run(capsys, "admissible", "40")
    assert (code, out) == (2, "")
    assert err == (f"error: M_40 has 1072994093040913088512 admissible sets, "
                   f"more than the {cli.MAX_ADMISSIBLE_SETS} this command lists\n")
    # past n = 2000 the error gives a bound instead of computing the count
    code, out, _ = run(capsys, "--json", "admissible", "10000000000")
    assert code == 2
    assert json.loads(out)["error"].startswith("M_10000000000 has more than 3^9999999999 ")


def test_stratum_and_center(capsys):
    code, out, _ = run(capsys, "stratum", "z1")
    assert code == 0
    assert "generators: y1, z2, y2" in out
    code, out, _ = run(capsys, "center", "")
    assert code == 0
    assert "center lattice rank" in out


def test_stratum_rejects_non_admissible(capsys):
    code, _, err = run(capsys, "stratum", "z2,y2")
    assert code == 2
    assert "not admissible" in err


@pytest.mark.parametrize("command, kind", [("stratum", "z"), ("center", "y")])
def test_marker_index_past_the_digit_limit(capsys, command, kind):
    code, out, err = run(capsys, command, kind + "9" * 5000)
    assert (code, out) == (2, "")
    assert err == (f"error: bad marker in set specification: {kind} index with more "
                   f"than {sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("tspec", ["z\u00b2", "q1", "z1,,z2"])
def test_stratum_rejects_bad_marker(capsys, tspec):
    code, out, err = run(capsys, "stratum", tspec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad marker") and err.count("\n") == 1


def test_example_quantum_plane(capsys):
    code, out, _ = run(capsys, "example", "quantum-plane")
    assert code == 0
    assert "xy=tyx" in out
    assert "{x,y}=xy" in out


def test_maltsiniotis(capsys):
    code, out, _ = run(capsys, "maltsiniotis", "(eta^[1,0]-1)*y1")
    assert code == 0
    assert out.strip() == "y1"
    code, _, err = run(capsys, "maltsiniotis", "y1")
    assert code == 2
    assert "localization" in err.lower()


def test_maltsiniotis_relation_is_zero(capsys):
    expr = "x2*y2 - eta^[0,1]*y2*x2 - 1 - (eta^[1,0]-1)*y1*x1"
    code, out, _ = run(capsys, "maltsiniotis", expr)
    assert code == 0
    assert out.strip() == "0"


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "y1 +")
    assert code == 2
    assert "column" in err


def test_unknown_generator_exit_code(capsys):
    code, _, err = run(capsys, "nf", "y9")
    assert code == 2


@pytest.mark.parametrize("expr", ["x9^0", "eta^[1]^0"])
def test_zeroth_power_checks_its_base(capsys, expr):
    """maltsiniotis rejects a bad base under ^0 with the same line as nf."""
    code, _, nf_err = run(capsys, "nf", expr)
    assert code == 2
    assert nf_err.startswith("error: ") and nf_err.count("\n") == 1
    code, out, err = run(capsys, "maltsiniotis", expr)
    assert (code, out, err) == (2, "", nf_err)


def test_rescaling_oracle_by_substitution(capsys):
    """maltsiniotis of E with each y_i written as (q_i - 1)*y_i prints what nf
    of E prints: the rescaling map read off the printed normal forms, with no
    Rescaled value in the reference."""
    rng = random.Random(13)
    for _ in range(300):
        expr, substituted = recorder.rescaling_pair(rng, 2, "builtin")
        code, want, _ = run(capsys, "nf", "--", expr)
        assert code == 0, expr
        assert run(capsys, "maltsiniotis", "--", substituted) == (0, want, ""), expr


@pytest.mark.parametrize("expr, term", [
    ("(y1+x1)^2", "y1^2"),
    # the term is printed as nf prints an element, with the quotient reached
    # when (q1 - 1) fails to divide: here y1's own coefficient, untouched by
    # the (q2 - 1)^2 elsewhere in the sum
    ("y1 + (eta^[0,1]-1)^2*y2^2", "y1"),
])
def test_maltsiniotis_localization_error_text(capsys, expr, term):
    code, out, err = run(capsys, "maltsiniotis", expr)
    assert (code, out) == (2, "")
    assert err == (f"error: term {term} does not clear the denominator (q1 - 1); "
                   "localization required\n")


@pytest.mark.parametrize("big", [2**40, 2**70])
def test_maltsiniotis_with_wide_exponents_matches_nf_by_substitution(capsys, big):
    """Exponent entries of 2^40 and 2^70 widen the rescaled engine's fields
    as they do the plain engine's: maltsiniotis of E with each y_i written
    as (q_i - 1)*y_i prints what nf of E prints."""
    exprs = [
        f"eta^[{big},-{big}]*x2^3*y2^3",
        f"(eta^[{big},1]*x1 + y1 + z1)^2*(x2*y2 - eta^[-{big},{big}]*z2)",
        f"x1^2*x2^2*(eta^[0,{big}]*y1 + y2)^2 - eta^[{big},0]*z2^2",
    ]
    for expr in exprs:
        substituted = expr.replace("y1", "((eta^[1,0]-1)*y1)").replace("y2", "((eta^[0,1]-1)*y2)")
        code, want, _ = run(capsys, "nf", expr)
        assert code == 0 and str(big) in want
        assert run(capsys, "maltsiniotis", substituted) == (0, want, ""), expr


def test_maltsiniotis_of_a_power_is_a_few_products(capsys, monkeypatch):
    """The expanded (x1+x2)^16 has 65 536 words; its rescaled value is a
    power of one sum, so the engine multiplies a handful of times."""
    calls = []
    original = StraighteningEngine.mul_terms

    def counted(self, ta, tb):
        calls.append(1)
        return original(self, ta, tb)

    monkeypatch.setattr(StraighteningEngine, "mul_terms", counted)
    code, out, _ = run(capsys, "maltsiniotis", "(x1+x2)^16")
    assert code == 0 and out.startswith("x1^16 + ")
    assert len(calls) <= 10


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "quantum-plane")
    assert code == 0
    assert "PASS quantum-plane" in out
    assert "OK: 1/1 suites" in out


def test_verify_json_structure(capsys):
    code, out, _ = run(
        capsys, "--json", "verify", "--suite", "admissible-counts", "--seed", "7"
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"] is True
    assert record["checks"][0]["name"] == "admissible-counts"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_deterministic_under_seed(capsys):
    args = ("--json", "verify", "--suite", "interpolation", "--seed", "99")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_config_file(tmp_path, capsys):
    config = {
        "n": 1,
        "r": 1,
        "q_exponents": [[1]],
        "lambda_exponents": [[[0]]],
        "concrete": {"q": "2", "eta": ["3"], "mu": ["1"]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "--config", str(path), "nf", "x1*y1")
    assert code == 0
    assert out.strip() == "(-1 + eta^[1]) + eta^[1]*y1*x1"
    code, out, _ = run(capsys, "--config", str(path), "validate")
    assert code == 0
    assert "t^2 - t + 1" in out


def test_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"n\": 2}")
    code, _, err = run(capsys, "--config", str(path), "validate")
    assert code == 2


BASE_CONFIG = {
    "n": 1,
    "r": 1,
    "q_exponents": [[1]],
    "lambda_exponents": [[[0]]],
    "concrete": {"q": "2", "eta": ["3"], "mu": ["1"]},
}


@pytest.mark.parametrize(
    "change",
    [
        {"concrete": {"eta": ["3"], "mu": ["1"]}},
        {"concrete": {"q": "2", "mu": ["1"]}},
        {"concrete": {"q": "2", "eta": ["3"]}},
        {"concrete": {"q": "2", "eta": "3", "mu": ["1"]}},
        {"concrete": {"q": "2", "eta": ["3"], "mu": 1}},
        {"concrete": ["2", "3", "1"]},
        {"n": "two"},
        {"n": 1.5},
        {"r": None},
        {"r": [1]},
        {"lambda_exponents": [[[]]]},
        {"lambda_exponents": [[[0, 9], [9, 9]]]},
        {"q_exponents": [[1.5]]},
        {"q_exponents": [["1_0"]]},
        {"lambda_exponents": [[[0.9]]]},
        {"n": " 1"},
        {"r": "1 "},
        {"concrete": {"q": "2", "eta": [True], "mu": ["1"]}},
        {"concrete": {"q": "2", "eta": ["3"], "mu": [False]}},
        {"n": "9" * 5000},  # past the interpreter's 4300-digit limit on int()
    ],
)
def test_malformed_config_is_a_usage_error(tmp_path, capsys, change):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, **change)))
    code, out, err = run(capsys, "--config", str(path), "validate")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("concrete, message", [
    ({"q": "1", "eta": ["3"], "mu": ["1"]}, "sample point q must avoid 0 and 1"),
    ({"q": "2", "eta": ["0"], "mu": ["1"]}, "target eta value must be nonzero"),
], ids=["q", "eta"])
def test_concrete_block_outside_the_domain_is_a_usage_error(tmp_path, capsys, concrete, message):
    """A concrete block the interpolation rejects is a one-line usage error,
    in text and in the JSON record."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, concrete=concrete)))
    assert run(capsys, "--config", str(path), "validate") == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, "--config", str(path), "--json", "validate")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"command": "validate", "error": message}


@pytest.mark.parametrize("text, message", [
    ("[1]", "config must be a JSON object"),
    ('{"n": 1,', "config is not valid JSON: "),  # the prefix of the parser's own message
] + [(json.dumps(dict(BASE_CONFIG, **change)), message) for change, message in [
    ({"concrete": {"q": "2/0", "eta": ["3"], "mu": ["1"]}}, "bad rational literal '2/0'"),
    ({"concrete": {"q": "2", "eta": ["3", "5"], "mu": ["1"]}},
     "concrete eta/mu lists must have length r=1"),
    ({"r": 0, "lambda_exponents": []}, "invalid instance data: rank r must be positive"),
    ({"q_exponents": []}, "invalid instance data: expected 1 q exponent vectors"),
    ({"lambda_exponents": []}, "invalid instance data: expected 1 coordinate matrices"),
    ({"lambda_exponents": [5]}, "invalid instance data: coordinate matrix 1 must be 1 x 1"),
    ({"lambda_exponents": [[5]]}, "invalid instance data: coordinate matrix 1 must be 1 x 1"),
    ({"q_exponents": [1]}, "invalid instance data: s_1 = 1 must be a vector of integers"),
    ({"q_exponents": 1}, "invalid instance data: expected 1 q exponent vectors"),
]], ids=["array", "json", "rational", "concrete-length", "rank", "q-count", "matrix-count",
         "number-matrix", "number-row", "number-s", "number-q"])
def test_config_error_prints_its_message(tmp_path, capsys, text, message):
    """Each config error is one line that names what is wrong, in text and
    in the JSON record."""
    path = tmp_path / "instance.json"
    path.write_text(text)
    code, out, err = run(capsys, "--config", str(path), "validate")
    assert (code, out) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1
    assert message.endswith(": ") or err == f"error: {message}\n"
    code, out, json_err = run(capsys, "--config", str(path), "--json", "validate")
    assert (code, json_err) == (2, "")
    assert json.loads(out) == {"command": "validate", "error": err[len("error: "):-1]}


@pytest.mark.parametrize("name, content", [("instance.json", b'{"n": \xff}'), ("a\0b", None)])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is not None:  # a NUL cannot be in a file name, only in the path given
        path.write_bytes(content)
    code, out, err = run(capsys, "--config", str(path), "validate")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read config: ") and err.count("\n") == 1


# Python caps the digits of an int converted to or from text (4300 by default)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < DIGIT_LIMIT < 5000, reason="needs an int-to-text digit limit below 5000"
)
BIG = "9" * 5000


@needs_digit_limit
def test_unprintable_result_is_a_usage_error(capsys):
    message = f"a number has more than {DIGIT_LIMIT} digits, the limit for printing an integer"
    assert run(capsys, "nf", "2^20000") == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "--json", "nf", "2^20000")
    assert (code, json.loads(out)) == (2, {"command": "nf", "error": message})


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_unprintable_monomial_exponent_is_a_usage_error(capsys):
    """A monomial exponent past the digit limit meets the printers' one
    guard: exit 2 with the limit's line, also where a localization error
    would print the term, and from the quantum plane's printer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit allowed
    try:
        big = "9" * 640  # read as input; its double has 641 digits
        message = "a number has more than 640 digits, the limit for printing an integer"
        assert run(capsys, "nf", f"x1^{big}*x1^{big}") == (2, "", f"error: {message}\n")
        assert run(capsys, "maltsiniotis", f"y1^{big}*y1^{big}") == (2, "", f"error: {message}\n")
        with pytest.raises(DigitLimitError, match=f"^{message}$"):
            str(PlaneElement.monomial(PLANE, (0, 10**640)))
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
def test_unquoted_config_integer_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"n": ' + BIG + "}")
    message = f"config has an integer with more than {DIGIT_LIMIT} digits"
    assert run(capsys, "--config", str(path), "validate") == (2, "", f"error: {message}\n")


def test_scl_of_a_commutator_not_vanishing_at_one_exits_3(monkeypatch, capsys):
    # a commutator that keeps a's terms does not vanish at t = 1
    monkeypatch.setattr(StraighteningEngine, "q_commutator", lambda self, ta, tb, c: dict(ta))
    code, out, err = run(capsys, "scl", "x1", "y1")
    assert (code, out) == (3, "")
    assert err.startswith("error: internal error: NotDivisibleError: ") and err.count("\n") == 1


@pytest.mark.parametrize("expr, col, message", [
    pytest.param(
        expr, col, f"number with more than {DIGIT_LIMIT} digits", marks=needs_digit_limit, id=name
    )
    for name, expr, col in [
        ("literal", BIG, 1),
        ("exponent", f"x1^{BIG}", 4),
        ("index", f"x{BIG}", 1),
        ("eta-entry", f"eta^[1,-{BIG}]", 9),
        ("denominator", f"1/{BIG}", 1),
    ]
] + [pytest.param("x1 + 3/0", 6, "zero denominator", id="zero-denominator")] + [
    # only ASCII digits are digits
    pytest.param(expr, col, f"unexpected character {expr[col - 1]!r}", id=name)
    for name, expr, col in [
        ("superscript-exponent", "x1^\u00b2", 4),
        ("superscript-denominator", "3/\u00b2", 3),
        ("arabic-indic-index", "y\u0661", 2),
    ]
])
def test_bad_number_is_a_syntax_error(capsys, expr, col, message):
    code, out, err = run(capsys, "nf", expr)
    assert code == 2 and out == ""
    assert err == f"error: {message} (line 1, column {col})\n"


def test_nested_parentheses_limit(capsys):
    code, out, _ = run(capsys, "nf", "(" * 200 + "x1" + ")" * 200)
    assert code == 0
    assert out.strip() == "x1"
    for depth in (201, 1000):
        code, out, err = run(capsys, "nf", "(" * depth + "x1" + ")" * depth)
        assert code == 2
        assert out == ""
        assert "nested deeper than 200" in err and err.count("\n") == 1


def _signed_nest(levels):
    expr = "x1"
    for _ in range(levels):
        expr = f"1 - 2*-({expr})^1"  # five tree nodes per parenthesis level
    return expr


@pytest.mark.parametrize("command", ["nf", "maltsiniotis"])
def test_deep_expression_tree_is_an_error_not_a_crash(capsys, command):
    # one level past the parenthesis limit: the one-line syntax error at
    # the 201st parenthesis, whatever the size of the tree around it
    code, out, err = run(capsys, command, _signed_nest(201))
    assert code == 2 and out == ""
    assert err == "error: parentheses nested deeper than 200 levels (line 1, column 1608)\n"


@pytest.mark.parametrize("command", ["nf", "maltsiniotis"])
def test_deepest_accepted_expression_tree_evaluates(capsys, monkeypatch, command):
    """200 levels of ``1 - 2*-(...)^1`` (about 1000 tree nodes) evaluate to
    (2^200 - 1) + 2^200*x1, also from deep in a stack; evaluation nests only
    at Add and Mul, two frames a level, as Neg and Pow take none."""
    def nested_call(frames):  # leave room for a caller deep in a stack
        return nested_call(frames - 1) if frames else run(capsys, command, _signed_nest(200))

    assert nested_call(100) == (0, f"{2**200 - 1} + {2**200}*x1\n", "")
    evaluate, depth, deepest = exprs._evaluate, [0], [0]

    def counted(node, params, cls):
        depth[0] += 1
        deepest[0] = max(deepest[0], depth[0])
        try:
            return evaluate(node, params, cls)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exprs, "_evaluate", counted)
    assert run(capsys, command, _signed_nest(200))[0] == 0
    assert deepest[0] == 2 * 200 + 1  # Add and Mul per level, and the leaf x1


def test_leading_minus_round_trip(capsys):
    code, out, _ = run(capsys, "nf", "x2*y1*x1 - 5/12*x2")
    assert code == 0
    printed = out.strip()
    assert printed.startswith("-5/12*x2")
    code, out, _ = run(capsys, "nf", "--", printed)
    assert code == 0
    assert out.strip() == printed


@pytest.mark.parametrize("signs", [1000, 10000])
def test_long_unary_minus_chain(capsys, signs):
    code, out, _ = run(capsys, "nf", "x1+" + "-" * signs + "x1")
    assert code == 0
    assert out.strip() == "2*x1"


def _raise_internal(args, params, config):
    raise RuntimeError("boom")


def test_unexpected_error_exits_3(monkeypatch, capsys):
    broken = dataclasses.replace(cli.COMMANDS["nf"], handler=_raise_internal)
    monkeypatch.setitem(cli.COMMANDS, "nf", broken)
    code, out, err = run(capsys, "nf", "x1")
    assert code == 3
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"
    code, out, err = run(capsys, "--json", "nf", "x1")
    assert code == 3
    assert err == ""
    assert json.loads(out) == {"command": "nf", "error": "internal error: RuntimeError: boom"}


def test_failed_call_stores_no_partial_memo_entry(monkeypatch, capsys):
    """A ``stratum`` call that fails partway through filling the stratum
    table of the held instance exits 3; the next call, on that instance,
    prints what it prints on a new one."""
    bracket, calls = spectra.pb_core, []

    def third_call_fails(oa, ob):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return bracket(oa, ob)

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "pb_core", third_call_fails)
        assert run(capsys, "stratum", "") == (
            3, "", "error: internal error: RuntimeError: boom\n")
    held = cli._held
    assert held.torus_table  # the entries stored before the failure
    warm = run(capsys, "stratum", "")
    assert cli._held is held
    monkeypatch.setattr(cli, "_held", None)
    assert warm == run(capsys, "stratum", "") and warm[0] == 0


def test_calls_on_one_config_share_an_instance(monkeypatch, capsys):
    """``main`` holds the instance of its last call: the next call on an
    equal config reads the memos it filled, so a repeated ``stratum`` takes
    no bracket, and a call on another config frees it, with its engines and
    memos.  ``params_from_config`` builds a new instance each time."""
    bracket, calls = spectra.pb_core, []
    monkeypatch.setattr(spectra, "pb_core", lambda oa, ob: calls.append(1) or bracket(oa, ob))
    cold = run(capsys, "stratum", "")
    filled = len(calls)
    assert cold[0] == 0 and filled
    assert run(capsys, "stratum", "") == cold and len(calls) == filled
    assert cli.params_from_config(cli.DEFAULT_CONFIG) is not cli._held
    builtin = weakref.ref(cli._held)
    n3 = Path(__file__).resolve().parent / "cli_output" / "n3.json"
    assert run(capsys, "--config", str(n3), "nf", "x1*y1")[0] == 0
    gc.collect()
    assert builtin() is None


def test_held_instance_is_matched_by_type(tmp_path, capsys):
    """A held instance is reused only for a config of the same text: one
    with "n": true or a q exponent 1.0, equal to the held config under ==,
    is still checked and refused, and the refusal leaves the held instance
    in place; a config that differs in lambda_exponents gets its own."""
    def write(name, config):
        path = tmp_path / name
        path.write_text(json.dumps(config))
        return str(path)

    base = {"n": 1, "r": 1, "q_exponents": [[1]], "lambda_exponents": [[[0]]]}
    ok = write("base.json", base)
    assert run(capsys, "--config", ok, "nf", "x1*y1")[0] == 0
    held = cli._held
    for name, change, message in (
        ("bool.json", {"n": True}, "config field 'n' must be an integer, got True"),
        ("float.json", {"q_exponents": [[1.0]]},
         "config field 'q_exponents[0][0]' must be an integer, got 1.0"),
    ):
        assert run(capsys, "--config", write(name, {**base, **change}), "nf", "x1") == (
            2, "", f"error: {message}\n")
        assert cli._held is held
    assert run(capsys, "--config", ok, "nf", "x1")[0] == 0 and cli._held is held

    lexp = [[[0, 0], [0, 0]], [[0, 1], [-1, 0]]]  # lambda_12 = eta_2, not eta_1
    other = write("other.json", {**cli.DEFAULT_CONFIG, "lambda_exponents": lexp})
    default = run(capsys, "nf", "x2*x1")
    held = cli._held
    assert run(capsys, "--config", other, "nf", "x2*x1") != default
    assert cli._held is not held
    assert cli._held == cli.params_from_config({**cli.DEFAULT_CONFIG, "lambda_exponents": lexp})


def test_instance_block_is_kept_with_the_held_instance(tmp_path, capsys):
    """The --json "instance" block is built when the held instance is
    replaced and kept with it.  A config file equal to the built-in config
    is still a config: it gets its own instance and block, with "source":
    "config", and the built-in config after it gets "builtin-default" again."""
    def instance(*argv):
        code, out, _ = run(capsys, *argv, "--json", "nf", "x1")
        assert code == 0
        return json.loads(out)["instance"]

    builtin = {"n": 2, "r": 2, "q_exponents": [[1, 0], [0, 1]], "source": "builtin-default"}
    assert instance() == builtin
    held, block = cli._held, cli._held_block
    assert instance() == builtin and cli._held is held and cli._held_block is block
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cli.DEFAULT_CONFIG))
    for _ in range(2):
        assert instance("--config", str(path)) == {**builtin, "source": "config"}
    assert cli._held is not held and cli._held == held
    assert instance() == builtin


def test_scl_renders_its_result_once(monkeypatch, capsys):
    """``scl`` prints its result's text in the record and in its line from
    one render of the result."""
    render, rendered = weyl.element_to_str, []

    def counted(a, *rest):
        rendered.append(a)
        return render(a, *rest)

    monkeypatch.setattr(weyl, "element_to_str", counted)
    for flags in ((), ("--json",)):
        rendered.clear()
        code, out, _ = run(capsys, *flags, "scl", "x1*y2 + x2^2", "y1 + x1*x2")
        assert code == 0 and "mu1*y2 + -mu2*x1^2" in out and len(rendered) == 1


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "semiclassical_bracket", lambda a, b: a)
    code, out, _ = run(capsys, "--json", "scl", "x1", "y1")
    assert code == 1
    assert json.loads(out)["checks"] == [{"name": "bracket-consistency", "passed": False}]


RECORD = {"command", "instance", "result", "checks"}

# every command's arguments on the built-in config, and its documented record keys
RECORD_SHAPES = {
    "validate": ([], RECORD),
    "nf": (["x1*y1"], RECORD),
    "comm": (["x1", "y1"], RECORD),
    "bracket": (["x1", "y1"], RECORD),
    "limit": (["z2"], RECORD),
    "scl": (["x1", "y1"], RECORD),
    "admissible": (["2"], {"command", "n", "count", "result"}),
    "stratum": (["z1"], RECORD),
    "center": ([""], RECORD),
    "verify": (["--suite", "quantum-plane"], {"command", "seed", "result", "checks"}),
    "example": (["quantum-plane"], {"command", "result", "checks"}),
    "maltsiniotis": (["(eta^[1,0]-1)*y1"], RECORD),
}


def test_record_shapes_cover_every_command():
    assert set(RECORD_SHAPES) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(RECORD_SHAPES))
def test_json_record_shape(capsys, command):
    argv, keys = RECORD_SHAPES[command]
    code, out, _ = run(capsys, "--json", command, *argv)
    assert code == 0
    record = json.loads(out)
    assert record["command"] == command
    assert set(record) == keys


def test_parser_keeps_no_state_between_calls(capsys):
    """The parser is built once per process; an earlier call's options and a
    rejected argv must not leak into a later call."""
    argv = ["--json", "verify", "--suite", "quantum-plane"]
    code, _, _ = run(capsys, "verify", "--suite", "admissible-counts", "--seed", "9")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "--seed", "5", "verify")  # the seed is verify's own flag
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "qweyl.cli", *argv], env=_cli_env(),
                           capture_output=True, text=True, timeout=120)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out)["seed"] == cli.DEFAULT_SEED


@pytest.mark.parametrize("argv, command, message", [
    (["nf"], "nf", "the following arguments are required: expr"),
    ([], None, "the following arguments are required: command"),
    # how the choices print differs between Python versions
    (["frobnicate", "x1"], None, "argument command: invalid choice: 'frobnicate' (choose from "),
    (["admissible", "x"], "admissible", "argument n: invalid int value: 'x'"),
    (["nf", "x1", "x2"], "nf", "unrecognized arguments: x2"),
])
def test_usage_errors_are_one_line(capsys, argv, command, message):
    """A malformed command line is one ``error:`` line on stderr, or with
    ``--json`` one record on stdout whose command is null when the command
    itself is bad; both exit 2, and no usage block is printed."""
    code, out, line = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert line.startswith(f"error: {message}") and line.count("\n") == 1 and line.endswith("\n")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (2, "")
    assert json.loads(out) == {"command": command, "error": line[len("error: "):-1]}


def test_help_still_prints_and_exits_0(capsys):
    for argv in (["-h"], ["nf", "-h"], ["--json", "scl", "-h"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: qweyl ")


def _cli_env() -> dict:
    """The environment for running the CLI from this checkout in a subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_with_stdout(stdout) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qweyl.cli", "admissible", "3"],
                          env=_cli_env(), stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


def _assert_write_error(proc: subprocess.CompletedProcess) -> None:
    """An output failure exits 3 with one error line and no traceback."""
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


def test_closed_stdout_pipe_exits_3():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_with_stdout(write_end)
    finally:
        os.close(write_end)
    _assert_write_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exits_3():
    with open("/dev/full", "w") as full:
        _assert_write_error(_run_with_stdout(full))
