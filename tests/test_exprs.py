import gc
import importlib
import random
import sys
import weakref
from functools import reduce
from operator import add, mul

import pytest

from qweyl import (
    ExprEvalError,
    ExprSyntaxError,
    MaltsiniotisElement,
    QTScalar,
    WeylElement,
    eval_rescaled,
    eval_weyl,
    parse_expr,
    wa_z,
)
from qweyl.exprs import Add, EtaMono, Gen, Mul, Neg, Num, Pow
from qweyl.scalars import TermMap
from qweyl.weyl import PbwElement
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


def test_atom_table_is_bounded_and_keyed_by_class(params3):
    """The generator leaves are built once per instance and class, so the
    table holds at most 2(3n + 1) entries, and a rescaled z_i (1 + sum
    (q_k - 1) Y_k x_k) is never served to ``eval_weyl``.  Every leaf is still
    checked, so a bad one raises its one-line message with its position."""
    leaves = " + ".join(f"{k}{i}" for k in "yx" for i in range(1, 4)) + " + z0 + z1 + z2 + z3"
    for _ in range(2):
        for evaluate in (eval_rescaled, eval_weyl):
            evaluate(parse_expr(leaves), params3)
    assert len(params3.atoms) == 2 * (3 * 3 + 1)
    assert {cls for cls, _, _ in params3.atoms} == {WeylElement, MaltsiniotisElement}
    for i in range(4):
        z = ev(f"z{i}", params3)
        assert type(z) is WeylElement and z == wa_z(params3, i)
        assert eval_rescaled(parse_expr(f"z{i}"), params3) == MaltsiniotisElement.z(params3, i)
    for text, message in [("x1 +\n  y4", "unknown generator y4 for n=3 (line 2, column 3)"),
                          ("z1*z4", "z index 4 out of range 0..3 (line 1, column 4)")]:
        for evaluate in (eval_rescaled, eval_weyl):
            with pytest.raises(ExprEvalError) as info:
                evaluate(parse_expr(text), params3)
            assert str(info.value) == message
    with pytest.raises(ExprEvalError, match=r"^generator index True must be an int \(line 1"):
        eval_weyl(Gen("y", True, 1, 1), params3)
    assert len(params3.atoms) == 2 * (3 * 3 + 1)


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


@pytest.mark.parametrize("exponents", [(True, 0), (1.0, 0), (0, False)])
def test_eta_leaf_with_a_bad_exponent_names_its_position(params2, exponents):
    """A hand-built eta leaf whose exponents are not ints is refused with
    its position, as a generator leaf is, in both presentations."""
    for evaluate in (eval_weyl, eval_rescaled):
        with pytest.raises(ExprEvalError) as info:
            evaluate(Add((Gen("x", 1, 1, 1), EtaMono(exponents, 2, 7))), params2)
        assert str(info.value) == f"eta exponents {exponents} must be ints (line 2, column 7)"


def fold(node, params, cls):
    """``node`` by the validating constructors and binary ring operations."""
    if isinstance(node, Num):
        return cls.scalar(params, node.value)
    if isinstance(node, EtaMono):
        return cls.scalar(params, QTScalar.monomial(node.exponents))
    if isinstance(node, Gen):
        return cls.generator(params, node.kind, node.index)
    if isinstance(node, Neg):
        return -fold(node.item, params, cls)
    if isinstance(node, Pow):
        return fold(node.base, params, cls) ** node.exponent
    op, parts = (mul, node.factors) if isinstance(node, Mul) else (add, node.terms)
    return reduce(op, [fold(part, params, cls) for part in parts])


def random_text(rng, depth):
    leaves = ["x1", "y1", "x2", "y2", "z1", "z2", "0", "2", "3/4", "-1", "eta^[1,-1]", "eta^[0,0]"]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    a, b = random_text(rng, depth - 1), random_text(rng, depth - 1)
    return rng.choice([f"{a} + {b}", f"{a} - {b}", f"({a}) - -({b})", f"-({a}) + {b} - ({a})",
                       f"({a})*({b})", f"-{a} - ({b})^2 + {a}"])


@pytest.mark.parametrize("evaluate, cls", [(eval_weyl, WeylElement),
                                           (eval_rescaled, MaltsiniotisElement)])
def test_sums_and_leaves_match_the_binary_fold(params2, evaluate, cls):
    """A sum built in one pass and scalar leaves built in stored form give
    the element, terms and coefficient forms included, that the binary
    fold over the validating constructors gives."""
    rng = random.Random(47)
    texts = [random_text(rng, 3) for _ in range(150)] + [
        "x1 - x1", "-(y1 + x2) + y1 + x2", "z1 - y1*x1 - 1", "3/4 - -x1", "-2 + 2", "0 + 0*x1",
        "x1 - -y1 - - -x2", "eta^[1,0] - eta^[1,0] + 6/3",
    ]
    for text in texts:
        tree = parse_expr(text)
        got, want = evaluate(tree, params2), fold(tree, params2, cls)
        assert type(got) is cls and got.terms == want.terms, text
        assert [type(k) for _, c in got.terms for _, k in c.terms] == [
            type(k) for _, c in want.terms for _, k in c.terms], text
    assert not evaluate(parse_expr("x1 - x1 + (y2 - y2)"), params2).terms


def test_a_sum_is_built_once(params2, monkeypatch):
    """An Add of k parts builds its element with one ``_from_sums`` and adds
    no two elements with ``+``; the parts share monomials, so coefficients
    still add."""
    calls = []
    plus, from_sums = TermMap.__add__, TermMap._from_sums.__func__

    def counted_plus(self, other):
        calls.append(("+", type(self)))
        return plus(self, other)

    def counted_from_sums(cls, context, sums):
        calls.append(("_from_sums", cls))
        return from_sums(cls, context, sums)

    monkeypatch.setattr(TermMap, "__add__", counted_plus)
    monkeypatch.setattr(TermMap, "_from_sums", classmethod(counted_from_sums))
    tree = parse_expr("x1 + y1 - x1 + 2*y1 - 3 + z1 + y2*x2 - -y1*x1")
    assert isinstance(tree, Add) and len(tree.terms) == 8
    got = eval_weyl(tree, params2)
    elements = [(name, cls) for name, cls in calls if issubclass(cls, PbwElement)]
    assert elements == [("_from_sums", WeylElement)]
    assert got == ev("3*y1 - 2 + 2*y1*x1 + y2*x2", params2) == fold(tree, params2, WeylElement)


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
