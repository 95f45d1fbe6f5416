import random
from fractions import Fraction

import pytest

from qweyl import (
    MuPoly,
    NotDivisibleError,
    PoissonElement,
    QTScalar,
    RankMismatchError,
    WeylElement,
    build_e,
)
from qweyl.quantum_plane import PLANE, PlaneElement
from qweyl.weyl import StraighteningEngine


def mono(vec, coeff=1):
    return QTScalar.monomial(vec, coeff)


def rand_scalar(rng, r, terms=3):
    items = []
    for _ in range(rng.randint(0, terms)):
        vec = tuple(rng.randint(-2, 2) for _ in range(r))
        items.append((vec, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return QTScalar(r, items)


# -- products and sums ---------------------------------------------------------


def test_mul_exponent_addition():
    assert mono((1, 0)) * mono((-1, 1)) == mono((0, 1))


def test_mul_difference_of_squares():
    e1 = mono((1,))
    assert (e1 - 1) * (e1 + 1) == mono((2,)) - 1


def test_mul_structure_constants():
    # q1 * lam12 for s1=(1,0), L12=(1,0): exponents add
    assert mono((1, 0)) * mono((1, 0)) == QTScalar(2, {(2, 0): 1})


def test_add_zero_and_cancellation():
    a = rand_scalar(random.Random(0), 2)
    assert a + QTScalar.zero(2) == a
    assert QTScalar(2, {(1, 0): 1}) + QTScalar(2, {(1, 0): -1}) == QTScalar.zero(2)
    q1 = mono((1, 0))
    assert (q1 - 1) + 1 == q1


def test_rank_mismatch_raises():
    with pytest.raises(RankMismatchError):
        mono((1, 0)) * mono((1,))
    with pytest.raises(RankMismatchError):
        mono((1, 0)) + mono((1,))


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 3)
        a, b, c = (rand_scalar(rng, r) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# -- eval and derivative at the classical point ---------------------------------


def test_eval_one_examples():
    assert (mono((1, 0)) - 1).eval_one() == 0
    assert QTScalar.constant(2, 5).eval_one() == 5
    assert QTScalar(2, {(2, -1): 3, (0, 0): -3}).eval_one() == 0


def test_eval_one_is_ring_hom():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 3)
        a, b = rand_scalar(rng, r), rand_scalar(rng, r)
        assert (a * b).eval_one() == a.eval_one() * b.eval_one()
        assert (a + b).eval_one() == a.eval_one() + b.eval_one()


def test_deriv_one_examples():
    assert mono((1,)).deriv_one() == MuPoly.variable(1, 0)
    assert QTScalar.constant(2, Fraction(7, 3)).deriv_one() == MuPoly.zero(2)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_deriv(p):
    return [k * c for k, c in enumerate(p)][1:]


def _poly_eval(p, t):
    return sum(c * t**k for k, c in enumerate(p))


def test_deriv_one_against_quadratic_differentiation_oracle():
    # e1^2 * e2^-1: the exponent rule says 2*mu1 - mu2.  Independent check:
    # realize the symbols by explicit quadratics, differentiate the rational
    # function (P/Q)' = (P'Q - PQ')/Q^2 with plain polynomial arithmetic, and
    # compare values at t=1.
    a = QTScalar(2, {(2, -1): 1})
    d = a.deriv_one()
    assert d == MuPoly(2, {(1, 0): 2, (0, 1): -1})
    for q, etas, mus in [
        (Fraction(2), (3, 5), (1, 2)),
        (Fraction(3), (Fraction(5, 2), 7), (Fraction(-1, 2), Fraction(4, 3))),
    ]:
        e1 = build_e(q, etas[0], mus[0])
        e2 = build_e(q, etas[1], mus[1])
        p1 = [e1.c, e1.b, e1.a]
        p2 = [e2.c, e2.b, e2.a]
        num = _poly_mul(p1, p1)
        dnum = _poly_deriv(num)
        dden = _poly_deriv(p2)
        # Q(1) = 1, P(1) = 1, so f'(1) = P'(1) - Q'(1)
        oracle = _poly_eval(dnum, Fraction(1)) - _poly_eval(dden, Fraction(1))
        assert d.subs(mus) == oracle


def test_limit_div_examples():
    assert (mono((1, 0)) - 1).limit_div() == MuPoly.variable(2, 0)
    assert QTScalar.zero(2).limit_div() == MuPoly.zero(2)
    with pytest.raises(NotDivisibleError):
        QTScalar.one(2).limit_div()


def test_limit_div_opposite_monomials():
    # lam12 - lam21 with L12 = (1,0): exponents (1,0) and (-1,0)
    a = mono((1, 0)) - mono((-1, 0))
    d = a.limit_div()
    assert d == MuPoly(2, {(1, 0): 2})
    # oracle: with e1 = t^2 - t + 1 (derivative 1 at t=1), the function
    # e1 - 1/e1 = (e1^2 - 1)/e1 divided by (t - 1) evaluates at 1 to the
    # quotient of the exact univariate division of e1^2 - 1 by (t - 1).
    e1 = [Fraction(1), Fraction(-1), Fraction(1)]  # c, b, a order
    num = _poly_mul(e1, e1)
    num[0] -= 1
    quot = []
    rem = list(reversed(num))  # highest degree first
    while len(rem) > 1:
        lead = rem.pop(0)
        quot.append(lead)
        rem[0] += lead  # dividing by (t - 1)
    assert rem == [Fraction(0)]
    g_at_1 = sum(quot)
    assert d.subs([1, 0]) == g_at_1 == 2


def test_limit_div_scaling_property():
    rng = random.Random(23)
    for _ in range(100):
        r = rng.randint(1, 3)
        c = rand_scalar(rng, r)
        base = rand_scalar(rng, r)
        a = base * (QTScalar.monomial(tuple([1] + [0] * (r - 1))) - 1)
        assert a.eval_one() == 0
        assert (a * c).limit_div() == a.limit_div() * c.eval_one()


def test_leibniz_at_one():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 3)
        a, b = rand_scalar(rng, r), rand_scalar(rng, r)
        lhs = (a * b).deriv_one()
        rhs = a.deriv_one() * b.eval_one() + b.deriv_one() * a.eval_one()
        assert lhs == rhs


def test_eval_at():
    a = mono((1, -1)) + 2
    assert a.eval_at([Fraction(3), Fraction(2)]) == Fraction(3, 2) + 2


# -- mu polynomials ----------------------------------------------------------------


def test_mupoly_arithmetic():
    m1, m2 = MuPoly.variable(2, 0), MuPoly.variable(2, 1)
    p = (m1 + m2) * (m1 - m2)
    assert p == m1 * m1 - m2 * m2
    assert MuPoly.linear((2, -1)) == 2 * m1 - m2
    assert p.degree() == 2
    assert (m1 * 0) == MuPoly.zero(2)


def test_mupoly_linear_coefficients():
    assert MuPoly.linear((3, -2)).linear_coefficients() == (3, -2)
    with pytest.raises(ValueError):
        (MuPoly.variable(2, 0) * MuPoly.variable(2, 0)).linear_coefficients()


@pytest.mark.parametrize("p, expected", [
    (MuPoly(3, {(1, 0, 0): Fraction(1, 2), (0, 0, 1): -3}), (Fraction(1, 2), 0, -3)),
    (MuPoly.zero(3), (0, 0, 0)),
    (MuPoly.linear((0, 7)), (0, 7)),
])
def test_linear_coefficients_fill_every_slot_with_a_fraction(p, expected):
    coeffs = p.linear_coefficients()
    assert coeffs == expected
    assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("rank, terms", [
    (1, [((-1,), 1)]),
    (2, [((2, -1), 1)]),
    (2, {(0, -2): Fraction(1, 2)}),
])
def test_mupoly_rejects_negative_exponents(rank, terms):
    with pytest.raises(ValueError, match="negative exponent in MuPoly monomial"):
        MuPoly(rank, terms)
    # the eta-scalars stay Laurent
    assert QTScalar(rank, terms).terms == tuple(dict(terms).items())


@pytest.mark.parametrize("p", [
    MuPoly.one(2),
    MuPoly(2, {(1, 1): 1}),
    MuPoly(2, {(2, 0): 3}),
    MuPoly.variable(2, 0) + 1,
])
def test_linear_coefficients_rejects_other_forms(p):
    with pytest.raises(ValueError, match="is not a homogeneous linear mu-form"):
        p.linear_coefficients()


@pytest.mark.parametrize("coeff", [0.5, 0.0, 1.0])
def test_float_coefficients_are_rejected(coeff):
    with pytest.raises(TypeError, match="expected an integer or Fraction, got float"):
        QTScalar(1, [((0,), coeff)])
    with pytest.raises(TypeError):
        QTScalar(1, [((0,), 1), ((0,), -coeff)])
    with pytest.raises(TypeError):
        QTScalar.monomial((1,), coeff)
    with pytest.raises(TypeError):
        MuPoly(1, [((1,), coeff)])
    for value in (mono((1,), 2), MuPoly.variable(1, 0)):
        with pytest.raises(TypeError):  # scale skips the constructor's checks
            value.scale(coeff)


def test_integral_coefficients_are_stored_as_int():
    half = QTScalar(1, [((0,), Fraction(1, 2)), ((1,), Fraction(3, 2))])
    total = half + half
    assert total.terms == (((0,), 1), ((1,), 3))
    assert [type(c) for _, c in (half * 2).terms] == [int, int]
    assert [type(c) for _, c in (half * half).terms] == [Fraction, Fraction, Fraction]
    assert QTScalar.monomial((1,), Fraction(4, 2)).terms == (((1,), 2),)
    # int and Fraction compare and hash alike, so values are unchanged
    assert hash(QTScalar.constant(1, 3)) == hash(QTScalar.constant(1, Fraction(3)))
    assert str(total) == "1 + 3*eta^[1]"


def test_printing_deterministic():
    a = mono((1, 0)) - 1
    assert str(a) == "-1 + eta^[1,0]"
    assert str(QTScalar.zero(2)) == "0"
    assert str(MuPoly(2, {(1, 0): 2, (0, 1): -1})) == "-mu2 + 2*mu1"


# -- the shared term-map base ---------------------------------------------------------


def test_rings_do_not_mix():
    with pytest.raises(TypeError):
        QTScalar.one(2) + MuPoly.one(2)
    with pytest.raises(TypeError):
        MuPoly.one(2) * QTScalar.one(2)
    assert QTScalar.one(2) != MuPoly.one(2)
    # a plane element and a Weyl element over the same shape stay apart
    x, w = PlaneElement.x(), WeylElement.generator(PLANE, "x", 1)
    with pytest.raises(TypeError):
        x + w
    with pytest.raises(TypeError):
        w * x
    with pytest.raises(TypeError):
        x * w
    assert x != w and x.terms == w.terms


def test_errors_and_repr_name_the_concrete_class():
    for value in (QTScalar.one(1), MuPoly.one(1), PlaneElement.one(PLANE)):
        cls = type(value)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            value.rank = 2
        assert repr(value) == f"{cls.__name__}(1)"
    x = PlaneElement.x()
    assert repr(x + 1) == "PlaneElement(1 + x)"
    assert repr(2 * x) == "PlaneElement(2*x)"
    assert repr(x ** 3) == "PlaneElement(x^3)"


@pytest.mark.parametrize("cls", [QTScalar, MuPoly])
@pytest.mark.parametrize("vec", [(1.5,), (True,), (1, 2.0), (False, 1)])
def test_exponents_must_be_ints(cls, vec):
    with pytest.raises(ValueError, match=rf"^{cls.__name__} exponents \(.*\) must be ints$"):
        cls(len(vec), [(vec, 1)])


def test_subs_is_eval_at():
    p = MuPoly(2, {(2, 0): 3, (0, 1): -1, (0, 0): Fraction(1, 2)})
    assert p.subs([2, 5]) == p.eval_at([2, 5]) == 12 - 5 + Fraction(1, 2)
    with pytest.raises(RankMismatchError):
        p.subs([1])


def test_powers_are_repeated_products(params2):
    y1, x2 = WeylElement.generator(params2, "y", 1), WeylElement.generator(params2, "x", 2)
    for a in (
        y1 + x2 * y1 - 2,
        mono((1, -1), Fraction(-3, 2)),
        mono((1, 0)) - mono((0, 2), 3),
        MuPoly(2, {(1, 0): 2, (0, 1): -1, (0, 0): 1}),
        PoissonElement(params2, [((1, 0, 0, 1), MuPoly.linear((1, 2))), ((0, 1, 0, 0), 3)]),
        PlaneElement.x() + 2 * PlaneElement.y(),
    ):
        expected = a.one(a.context)
        for k in range(10):
            assert a ** k == expected, (a, k)
            expected = expected * a
        for k in (-1, 1.0):
            with pytest.raises(ValueError, match="powers must be nonnegative integers"):
                a ** k


def test_powers_reject_bools(params2):
    """``True`` is no exponent, as everywhere else in the package."""
    y1 = WeylElement.generator(params2, "y", 1)
    for a in (y1, QTScalar.monomial((1, 0)), PlaneElement.x()):
        for k in (True, False):
            with pytest.raises(ValueError, match="powers must be nonnegative integers"):
                a ** k


def test_powers_square_and_multiply(params2, monkeypatch):
    """At most 30 products for a 20000th power, counted at ``_product``:
    a power of a scalar reaches no engine."""
    calls = {"_product": 0, "mul_terms": 0}

    def counting(cls, name):
        inner = getattr(cls, name)

        def count(self, *args):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(cls, name, count)

    counting(WeylElement, "_product")
    counting(StraighteningEngine, "mul_terms")
    two, y1 = WeylElement.scalar(params2, 2), WeylElement.generator(params2, "y", 1)
    for a, expected in ((two, WeylElement.scalar(params2, 2 ** 20000)),
                        (y1, WeylElement.monomial(params2, (20000, 0, 0, 0)))):
        calls.update(_product=0, mul_terms=0)
        assert a ** 20000 == expected
        assert 0 < calls["_product"] <= 30
        # a scalar's products only scale; a generator's all straighten
        assert calls["mul_terms"] == (0 if a is two else calls["_product"])
