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
from qweyl.cli import DEFAULT_CONFIG, concrete_from_config, params_from_config
from qweyl.suites import random_params, random_weyl
from qweyl import weyl
from qweyl.weyl import StraighteningEngine


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


def test_specialized_root_of_unity_drops_zero_terms(params3, monkeypatch):
    """At eta = (2, -1), q_2 = -1, so q_2^2 - 1 = 0 in the same-index step
    and the z_1 terms of x2^2 * y2^2 vanish; none may be stored as 0, in
    the result, in what a block append passes on or in any table entry a
    closed-form pass writes."""
    point = (Fraction(2), Fraction(-1))
    engine = StraighteningEngine(
        3, 0, lambda v: ((), QTScalar.monomial(v).eval_at(point)),
        params3.qexp, params3.lexp,
    )
    left = [(1, 1, 0, 2, 0, 0), (0, 1, 0, 2, 0, 1)]  # y1 x1 x2^2, x1 x2^2 x3
    right = (0, 0, 2, 0, 0, 0)  # y2^2
    one = QTScalar.one(0)
    stored, steps, step, add = [], [], StraighteningEngine._acc_times_block, weyl._add_shifted

    def recorded(self, acc, p, e, scale=None, out=None):
        steps.append(step(self, acc, p, e, scale, out))
        return steps[-1]

    def written(out, mono, d, e2, k2):
        add(out, mono, d, e2, k2)
        stored.append(dict(out[mono]))

    monkeypatch.setattr(StraighteningEngine, "_acc_times_block", recorded)
    monkeypatch.setattr(weyl, "_add_shifted", written)
    for m in left:
        formal = WeylElement.monomial(params3, m) * WeylElement.monomial(params3, right)
        expected = {
            mm: QTScalar.constant(0, v) for mm, c in formal.terms if (v := c.eval_at(point))
        }
        got = engine.mul_terms([(m, one)], [(right, one)])
        assert got == expected
        assert len(got) < len(formal.terms)
        stored.append(got)
    stored += [d for out in steps for d in out.values()]
    assert steps and all(c != 0 for table in stored for c in table.values())


def test_specialized_mul_rejects_malformed_monomials():
    """A key of either operand that is not 2n nonnegative ints raises the
    element constructor's error, on the n = 2 built-in instance."""
    params = params_from_config(DEFAULT_CONFIG)
    alg = SpecializedAlgebra(params, 2, concrete_from_config(DEFAULT_CONFIG, params))
    good = {(0, 1, 0, 0): 1}
    for bad in ((1, 0, 0), (0,) * 6, (-1, 0, 0, 0), (0, 1.0, 0, 0), (True, 0, 0, 0)):
        for ta, tb in (({bad: 1}, good), (good, {bad: 1})):
            with pytest.raises(ValueError, match="bad monomial exponent tuple"):
                alg.mul(ta, tb)
    assert alg.mul({(1, 0, 0, 0): 1}, good) == {(1, 1, 0, 0): 1}


def test_specialized_mul_takes_zero_values_and_rejects_floats():
    """A zero value gives the product of the map without its key, on either
    side, and an operand of zeros alone gives 0; a float value, 0.0
    included, raises TypeError."""
    params = params_from_config(DEFAULT_CONFIG)
    alg = SpecializedAlgebra(params, 2, concrete_from_config(DEFAULT_CONFIG, params))
    a = {(1, 1, 0, 0): 3, (0, 0, 1, 0): Fraction(-1, 2), (0, 0, 0, 0): 1}
    b = {(0, 1, 0, 0): 5, (1, 0, 0, 1): Fraction(2, 3)}
    want = alg.mul(a, b)
    assert want
    for zero in (0, Fraction(0)):
        assert alg.mul({**a, (2, 1, 0, 1): zero}, b) == want
        assert alg.mul(a, {(0, 0, 0, 0): zero, **b, (0, 2, 1, 0): zero}) == want
        assert alg.mul({(1, 0, 0, 0): zero}, b) == alg.mul(a, {(0, 1, 0, 0): zero}) == {}
    for bad in (0.0, 1.5):
        for ta, tb in (({**a, (2, 0, 0, 0): bad}, b), (a, {(0, 0, 0, 0): bad})):
            with pytest.raises(TypeError):
                alg.mul(ta, tb)


def test_commutator_coefficients_vanish_at_one():
    rng = random.Random(22)
    for _ in range(40):
        params = random_params(rng, rng.randint(1, 3), rng.randint(1, 2))
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        for _, c in wa_commutator(a, b).terms:
            assert c.eval_one() == 0
