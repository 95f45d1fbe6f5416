import random
from fractions import Fraction

import pytest

from qweyl import (
    ParameterDomainError,
    QTScalar,
    QuadPoly,
    SpecializedAlgebra,
    WeylElement,
    build_e,
    build_e_family,
    specialize,
    wa_commutator,
)
from qweyl.suites import random_params, random_weyl
from qweyl.weyl import build_engine


def test_build_e_constant_solution():
    e = build_e(2, 1, 0)
    assert (e.a, e.b, e.c) == (0, 0, 1)


def test_build_e_frozen_instance():
    e = build_e(2, 3, 1)
    assert (e.a, e.b, e.c) == (1, -1, 1)
    assert str(e) == "t^2 - t + 1"


def test_build_e_residuals_randomized():
    rng = random.Random(19)
    for _ in range(50):
        q = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        if q == 1:
            continue
        eta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        mu = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        e = build_e(q, eta, mu)
        assert e(q) == eta and e(1) == 1 and e.deriv_at(1) == mu


def test_build_e_rejects_bad_points():
    with pytest.raises(ParameterDomainError):
        build_e(0, 2, 1)
    with pytest.raises(ParameterDomainError):
        build_e(1, 2, 1)
    with pytest.raises(ParameterDomainError):
        build_e(2, 0, 1)


def test_specialize_examples(params2):
    e_polys = build_e_family(2, [3, 5], [1, 1])
    one = WeylElement.one(params2)
    assert specialize(one, 2, e_polys) == {(0, 0, 0, 0): 1}
    # (q1 - 1) y1 at lambda=2 with e1 = t^2 - t + 1: e1(2) = 3, so 2*y1
    q1 = params2.q_scalar(1)
    a = WeylElement.generator(params2, "y", 1).scale(q1 - 1)
    assert specialize(a, 2, e_polys) == {(1, 0, 0, 0): 2}


def test_specialize_rejects_roots(params2):
    # e(t) with e(lambda) = 0 at lambda = 3: build one through (3, eta) pairs
    e1 = QuadPoly(Fraction(1), Fraction(-4), Fraction(3))  # roots 1 and 3
    e2 = build_e(2, 3, 1)
    with pytest.raises(ParameterDomainError):
        SpecializedAlgebra(params2, 3, (e1, e2))
    with pytest.raises(ParameterDomainError):
        SpecializedAlgebra(params2, 1, (e2, e2))


def test_specialization_homomorphism(params2):
    rng = random.Random(21)
    e_polys = build_e_family(2, [3, Fraction(5, 2)], [1, Fraction(1, 2)])
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        alg = SpecializedAlgebra(params2, lam, e_polys)
        for _ in range(25):
            a, b = random_weyl(rng, params2), random_weyl(rng, params2)
            assert alg.specialize(a * b) == alg.mul(alg.specialize(a), alg.specialize(b))


def test_specialized_root_of_unity_drops_zero_terms(params3):
    """At eta = (2, -1), q_2 = -1, so q_2^2 - 1 = 0 in the same-index step
    and the z_1 terms of x2^2 * y2^2 vanish; none may be stored as 0, in
    the result or in the engine's memo."""
    point = (Fraction(2), Fraction(-1))
    engine = build_engine(
        3, 0, lambda v: ((), QTScalar.monomial(v).eval_at(point)),
        params3.qexp, params3.lexp,
    )
    left = [(1, 1, 0, 2, 0, 0), (0, 1, 0, 2, 0, 1)]  # y1 x1 x2^2, x1 x2^2 x3
    right = (0, 0, 2, 0, 0, 0)  # y2^2
    one = QTScalar.one(0)
    stored = []
    for m in left:
        formal = WeylElement.monomial(params3, m) * WeylElement.monomial(params3, right)
        expected = {
            mm: QTScalar.constant(0, v) for mm, c in formal.terms if (v := c.eval_at(point))
        }
        got = engine.mul_terms({m: one}, {right: one})
        assert got == expected
        assert len(got) < len(formal.terms)
        stored.append(got)
    stored += engine._gen_cache.values()
    assert all(c != 0 for table in stored for c in table.values())


def test_commutator_coefficients_vanish_at_one():
    rng = random.Random(22)
    for _ in range(40):
        params = random_params(rng, rng.randint(1, 3), rng.randint(1, 2))
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        for _, c in wa_commutator(a, b).terms:
            assert c.eval_one() == 0
