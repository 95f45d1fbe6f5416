import gc
import importlib
import random
import sys
import weakref

import pytest

from qweyl import (
    ExprEvalError,
    ExprSyntaxError,
    QTScalar,
    WeylElement,
    eval_weyl,
    parse_expr,
    wa_z,
)
from qweyl.exprs import Add, Gen, Mul, Num
from qweyl.suites import random_params, random_weyl


def ev(text, params):
    return eval_weyl(parse_expr(text), params)


def test_parse_product(params2):
    tree = parse_expr("x1*y1")
    assert isinstance(tree, Mul)
    assert ev("x1*y1", params2) == WeylElement.generator(
        params2, "x", 1
    ) * WeylElement.generator(params2, "y", 1)


def test_parse_sum_with_eta(params2):
    tree = parse_expr("eta^[1,0]*y1*x2 + 1")
    assert isinstance(tree, Add)
    got = ev("eta^[1,0]*y1*x2 + 1", params2)
    want = (
        WeylElement.generator(params2, "y", 1) * WeylElement.generator(params2, "x", 2)
    ).scale(params2.q_scalar(1)) + WeylElement.one(params2)
    assert got == want


def test_defining_relation_evaluates_to_zero(params2):
    assert ev("x1*y1 - eta^[1,0]*y1*x1 - (eta^[1,0]-1)", params2) == WeylElement.zero(
        params2
    )


def test_z_shorthand(params2):
    assert ev("z2", params2) == wa_z(params2, 2)
    assert ev("z0", params2) == WeylElement.one(params2)


def test_rationals_powers_negation(params2):
    from fractions import Fraction

    assert ev("3/4*y1^2", params2) == WeylElement.monomial(
        params2, (2, 0, 0, 0), Fraction(3, 4)
    )
    assert ev("-y1", params2) == -WeylElement.generator(params2, "y", 1)
    assert ev("(y1 + x1)^2", params2) == (
        WeylElement.generator(params2, "y", 1) + WeylElement.generator(params2, "x", 1)
    ) ** 2
    assert ev("eta^[-1,2]", params2) == WeylElement.scalar(
        params2, QTScalar.monomial((-1, 2))
    )


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("y1 + ")
    assert info.value.line == 1 and info.value.col == 6
    with pytest.raises(ExprSyntaxError):
        parse_expr("y1 ** x1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("foo1")
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("y1 +\n qq")
    assert info.value.line == 2


def test_unknown_index(params2):
    with pytest.raises(ExprEvalError):
        ev("y5", params2)
    with pytest.raises(ExprEvalError):
        ev("z9", params2)
    with pytest.raises(ExprEvalError):
        ev("eta^[1]", params2)


def test_generator_node_positions():
    tree = parse_expr("y2")
    assert isinstance(tree, Gen) and (tree.line, tree.col) == (1, 1)
    assert parse_expr("7") == Num(7)


def test_round_trip_randomized():
    rng = random.Random(33)
    for _ in range(120):
        params = random_params(rng, rng.randint(1, 3), rng.randint(1, 2))
        a = random_weyl(rng, params)
        assert ev(str(a), params) == a


def test_round_trip_special_cases(params2):
    for text in ("0", "1", "-1", "(eta^[1,0] - 1)"):
        a = ev(text, params2)
        assert ev(str(a), params2) == a


def test_a_reimported_package_is_freed():
    """Nothing outside the package, such as typing's cache of the Unions it
    builds, may keep a purged copy of qweyl alive."""
    saved = {k: m for k, m in sys.modules.items() if k == "qweyl" or k.startswith("qweyl.")}
    try:
        for k in saved:
            del sys.modules[k]
        copy = weakref.ref(importlib.import_module("qweyl.exprs").Add)
        for k in [k for k in sys.modules if k == "qweyl" or k.startswith("qweyl.")]:
            del sys.modules[k]
    finally:
        sys.modules.update(saved)
    gc.collect()
    assert copy() is None
