"""Property tests of the shared term-map core (``scalars.TermMap``).

Sums and products of eta-scalars are checked against sympy's Laurent
polynomial arithmetic, which shares no code with qweyl; exact division is
checked by multiplying back; equality and hashing by shuffling the terms.
hypothesis and sympy are installed where the tests run but are not declared
dependencies, so the module is skipped without them.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qweyl import (  # noqa: E402
    MuPoly,
    NotDivisibleError,
    PoissonElement,
    QTScalar,
    WeylElement,
    WeylParams,
    pe_div_exact,
)
from qweyl.weyl import mono_key  # noqa: E402

RANK = 2
PARAMS = WeylParams(2, RANK, ((1, 0), (0, 1)), (((0, 0), (1, -1)), ((-1, 1), (0, 0))))
ETA = sympy.symbols(f"eta1:{RANK + 1}")

# few examples, so the module stays fast; no example database is written
FAST = settings(max_examples=30, deadline=None, database=None)

rationals = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)
eta_vecs = st.tuples(*[st.integers(-2, 2)] * RANK)
mu_vecs = st.tuples(*[st.integers(0, 1)] * RANK)
pbw_monos = st.tuples(*[st.integers(0, 2)] * (2 * PARAMS.n))


def term_lists(keys, coeffs, max_size=4):
    return st.lists(st.tuples(keys, coeffs), max_size=max_size)


qt_scalars = term_lists(eta_vecs, rationals).map(lambda t: QTScalar(RANK, t))
mu_polys = term_lists(mu_vecs, rationals, 2).map(lambda t: MuPoly(RANK, t))
poisson_elements = term_lists(pbw_monos, mu_polys, 3).map(
    lambda t: PoissonElement(PARAMS, t)
)


def to_sympy(s: QTScalar):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[e ** k for e, k in zip(ETA, v)])
        for v, c in s.terms
    ])


def same(ours: QTScalar, theirs) -> bool:
    return sympy.expand(to_sympy(ours) - theirs) == 0


@FAST
@given(qt_scalars, qt_scalars)
def test_qt_ring_operations_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(a * b, sympy.expand(sa * sb))


@FAST
@given(qt_scalars, qt_scalars.filter(bool))
def test_qt_div_exact_inverts_product(a, d):
    assert (a * d).div_exact(d) == a


@FAST
@given(qt_scalars, qt_scalars.filter(lambda d: len(d.terms) > 1), rationals)
def test_qt_div_exact_rejects_remainder(a, d, c):
    # d is not a unit (not a monomial), so it does not divide the constant c
    with pytest.raises(NotDivisibleError):
        (a * d + c).div_exact(d)


def with_rational_lead(d: PoissonElement, c: Fraction) -> PoissonElement:
    """``d`` with the coefficient of its leading monomial replaced by ``c``."""
    lead = max((m for m, _ in d.terms), key=mono_key)
    return PoissonElement(PARAMS, [t for t in d.terms if t[0] != lead] + [(lead, c)])


@FAST
@given(poisson_elements, poisson_elements.filter(bool), rationals)
def test_pe_div_exact_inverts_product(a, d, c):
    d = with_rational_lead(d, c)
    assert pe_div_exact(a * d, d) == a


@FAST
@given(poisson_elements, poisson_elements.filter(lambda d: d.degree() > 0), rationals)
def test_pe_div_exact_rejects_remainder(a, d, c):
    # a nonconstant d does not divide the unit 1
    d = with_rational_lead(d, c)
    with pytest.raises(NotDivisibleError):
        pe_div_exact(a * d + 1, d)


@FAST
@given(st.data())
def test_equality_and_hash_ignore_term_order(data):
    for build, keys, coeffs in (
        (lambda t: QTScalar(RANK, t), eta_vecs, rationals),
        (lambda t: MuPoly(RANK, t), mu_vecs, rationals),
        (lambda t: WeylElement(PARAMS, t), pbw_monos, qt_scalars),
        (lambda t: PoissonElement(PARAMS, t), pbw_monos, mu_polys),
    ):
        terms = data.draw(term_lists(keys, coeffs, 5))
        shuffled = data.draw(st.permutations(terms))
        a, b = build(terms), build(shuffled)
        assert a == b
        assert hash(a) == hash(b)
