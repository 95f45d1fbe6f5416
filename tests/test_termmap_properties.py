"""Property tests of the shared term-map core (``scalars.TermMap``).

Sums and products of eta-scalars, products with a one-term factor (an edge
case of the one product loop, ``TermMap._product``, that random operands
rarely reach), and Poisson brackets are checked against sympy's polynomial
arithmetic, which shares no code with qweyl; the rescaling map's exact division by q_1 - 1 = eta^v - 1 is checked
by multiplying back; equality and hashing by shuffling the terms.  Every
stored rational coefficient must be an ``int`` or a non-integral ``Fraction``.
hypothesis and sympy are installed where the tests run but are not declared
dependencies, so the module is skipped without them.
"""

import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qweyl import (  # noqa: E402
    LocalizationRequiredError,
    MaltsiniotisElement,
    MuPoly,
    PoissonElement,
    QTScalar,
    WeylElement,
    WeylParams,
    from_maltsiniotis,
    pb_bracket,
    wa_commutator,
)
from qweyl.quantum_plane import PlaneElement  # noqa: E402

RANK = 2
PARAMS = WeylParams(2, RANK, ((1, 0), (0, 1)), (((0, 0), (1, -1)), ((-1, 1), (0, 0))))
ETA = sympy.symbols(f"eta1:{RANK + 1}")
# enough symbols for brackets with n, r <= 3; ``zip`` takes the first 2n and r
MU = sympy.symbols("mu1:4")
GENS = sympy.symbols("y1 x1 y2 x2 y3 x3")

# few examples, so the module stays fast; no example database is written
FAST = settings(max_examples=30, deadline=None, database=None)

rationals = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)
eta_vecs = st.tuples(*[st.integers(-2, 2)] * RANK)
nonzero_eta_vecs = eta_vecs.filter(any)
mu_vecs = st.tuples(*[st.integers(0, 1)] * RANK)
pbw_monos = st.tuples(*[st.integers(0, 2)] * (2 * PARAMS.n))


def term_lists(keys, coeffs, max_size=4):
    return st.lists(st.tuples(keys, coeffs), max_size=max_size)


qt_scalars = term_lists(eta_vecs, rationals).map(lambda t: QTScalar(RANK, t))
mu_polys = term_lists(mu_vecs, rationals, 2).map(lambda t: MuPoly(RANK, t))
weyl_elements = term_lists(pbw_monos, qt_scalars, 3).map(lambda t: WeylElement(PARAMS, t))
poisson_elements = term_lists(pbw_monos, mu_polys, 3).map(
    lambda t: PoissonElement(PARAMS, t)
)
# one-term operands, which random operands rarely are
qt_monomials = st.builds(QTScalar.monomial, eta_vecs, rationals)
poisson_monomials = st.builds(
    lambda m, c: PoissonElement(PARAMS, [(m, c)]), pbw_monos, mu_polys.filter(bool)
)


def to_sympy(s, symbols=ETA):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[e ** k for e, k in zip(symbols, v)])
        for v, c in s.terms
    ])


def pe_to_sympy(a: PoissonElement):
    return sympy.Add(*[
        to_sympy(c, MU) * sympy.Mul(*[g ** k for g, k in zip(GENS, m)])
        for m, c in a.terms
    ])


def stored_form(s) -> bool:
    """Every coefficient of the scalar ``s`` is an int or a non-integral
    Fraction (never a float, never an integral Fraction)."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for _, c in s.terms
    )


def pe_stored_form(a: PoissonElement) -> bool:
    return all(type(c) is MuPoly and stored_form(c) for _, c in a.terms)


def same(ours: QTScalar, theirs) -> bool:
    return sympy.expand(to_sympy(ours) - theirs) == 0


@FAST
@given(qt_scalars, qt_scalars)
def test_qt_ring_operations_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(a * b, sympy.expand(sa * sb))
    assert all(map(stored_form, (a + b, a - b, a * b, -a)))


@FAST
@given(qt_monomials, qt_scalars)
def test_qt_one_term_products_match_sympy(m, b):
    expected = sympy.expand(to_sympy(m) * to_sympy(b))
    for product in (m * b, b * m):
        assert same(product, expected)
        assert product == QTScalar(RANK, product.terms)  # sorted, canonical
        assert stored_form(product)


@FAST
@given(poisson_monomials, poisson_elements)
def test_pe_one_term_products_match_sympy(m, b):
    expected = sympy.expand(pe_to_sympy(m) * pe_to_sympy(b))
    for product in (m * b, b * m):
        assert sympy.expand(pe_to_sympy(product) - expected) == 0
        assert product.terms == PoissonElement(PARAMS, product.terms).terms
        assert pe_stored_form(product)


def one_pair(v) -> WeylParams:
    """The instance n = 1, r = RANK with q_1 = eta^v."""
    return WeylParams(1, RANK, (v,), (((0,) * RANK,),))


@FAST
@given(qt_scalars, nonzero_eta_vecs, st.integers(1, 3))
def test_rescaling_division_inverts_product(a, v, k):
    params = one_pair(v)
    rescaled = MaltsiniotisElement.monomial(params, (k, 1), a * (params.q_scalar(1) - 1) ** k)
    plain = from_maltsiniotis(rescaled)
    assert plain == WeylElement.monomial(params, (k, 1), a)
    assert all(stored_form(c) for _, c in plain.terms)


@FAST
@given(st.sampled_from([(0,) * RANK, (1,) * (RANK - 1), (1,) * (RANK + 1)]))
def test_rescaling_params_reject_bad_vectors(v):
    # no instance has a q_i that the rescaling map could not divide by
    with pytest.raises(ValueError, match="^s_1 "):
        one_pair(v)


@FAST
@given(qt_scalars, nonzero_eta_vecs, eta_vecs, rationals)
def test_rescaling_division_rejects_remainder(a, v, w, c):
    # the monomial c eta^w makes the sum of its line nonzero
    params = one_pair(v)
    term = MaltsiniotisElement.monomial(
        params, (1, 0), a * (params.q_scalar(1) - 1) + QTScalar.monomial(w, c))
    with pytest.raises(LocalizationRequiredError) as err:
        from_maltsiniotis(term)
    assert str(err.value) == (
        f"term {term} does not clear the denominator (q1 - 1); localization required")


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


def mono_key(term):
    """The PBW order as a sort key: total degree, then negated exponents."""
    return sum(term[0]), tuple(-e for e in term[0])


@FAST
@given(st.lists(pbw_monos, unique=True, max_size=40), st.randoms(use_true_random=False))
def test_pbw_order_is_degree_then_exponents_descending(monos, rng):
    """``PbwElement._order`` (two sorts, the second stable on degree) is the
    key order above, on term lists of 0-40 distinct monomials of 4 slots
    with entries up to 2: degrees 0-8, so any list past 9 terms has ties.
    Coefficients are ``QTScalar``s, which have no order, so no sort may
    compare one.  The quantum plane keeps plain tuple order, as scalars do."""
    items = [(m, QTScalar.constant(RANK, rng.randint(1, 3))) for m in monos]
    assert WeylElement._order(items) == sorted(items, key=mono_key)
    assert PoissonElement._order(dict(items).items()) == sorted(items, key=mono_key)
    plane = [(m[:2], c) for m, c in items if m[2:] == (0, 0)]
    assert PlaneElement._order(plane) == sorted(plane, key=lambda t: t[0])
    assert QTScalar._order([(m, 1) for m in monos]) == sorted((m, 1) for m in monos)


@FAST
@given(qt_scalars, mu_polys, st.lists(st.integers(-3, 3), min_size=RANK, max_size=RANK))
def test_rational_results_are_fractions(a, p, v):
    assert type(a.eval_one()) is Fraction
    assert type(p.constant_part()) is Fraction
    assert type(p.eval_at([1] * RANK)) is Fraction
    assert all(type(c) is Fraction for c in MuPoly.linear(tuple(v)).linear_coefficients())


def antisymmetric(n, r, upper):
    """The n x n table with the vectors ``upper`` above the diagonal, their
    negatives below it and zeros on it."""
    table = [[(0,) * r] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), v in zip(pairs, upper):
        table[i][j], table[j][i] = v, tuple(-e for e in v)
    return tuple(map(tuple, table))


@st.composite
def bracket_operands(draw):
    """An instance with n, r in {2, 3} and two Poisson elements on it, the
    first with a mu-dependent coefficient; coefficients have up to three
    mu-terms with denominators 1, 2, 3 and 7."""
    n, r = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    vecs = st.tuples(*[st.integers(-2, 2)] * r)
    s = draw(st.lists(vecs.filter(any), min_size=n, max_size=n))
    upper = draw(st.lists(vecs, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    params = WeylParams(n, r, tuple(s), antisymmetric(n, r, upper))
    monos = st.tuples(*[st.integers(0, 2)] * (2 * n))
    fractions = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3, 7]))
    coeffs = term_lists(st.tuples(*[st.integers(0, 2)] * r), fractions, 3).map(
        lambda t: MuPoly(r, t))
    ta, tb = draw(term_lists(monos, coeffs, 3)), draw(term_lists(monos, coeffs, 3))
    m, c = draw(monos), draw(coeffs.filter(lambda c: any(any(v) for v, _ in c.terms)))
    return PoissonElement(params, ta + [(m, c)]), PoissonElement(params, tb)


def sympy_generator_brackets(params):
    """{g, h} for every ordered pair of generators, from the five formulas of
    the ``qweyl.poisson`` docstring (i < j) and antisymmetry."""
    y, x = GENS[0::2], GENS[1::2]

    def form(*vecs):  # (v + w + ...) . mu
        return sum(sum(v[k] for v in vecs) * MU[k] for k in range(params.r))

    s = params.qexp
    L = params.lexp
    table = {}

    def put(g, h, value):
        table[g, h], table[h, g] = value, -value

    for i in range(params.n):
        put(x[i], y[i], form(s[i]) * (1 + sum(y[k] * x[k] for k in range(i + 1))))
        put(y[i], y[i], 0)
        put(x[i], x[i], 0)
        for j in range(i + 1, params.n):
            put(y[j], y[i], form(L[j][i]) * y[i] * y[j])
            put(y[j], x[i], form(L[i][j]) * x[i] * y[j])
            put(x[j], y[i], form(s[i], L[i][j]) * y[i] * x[j])
            put(x[j], x[i], -form(s[i], L[i][j]) * x[i] * x[j])
    return table


def assert_bracket_matches_sympy_bivector(a, b):
    """{f, g} = sum_{p,q} df/dg_p dg/dg_q {g_p, g_q}, with sympy derivatives."""
    gens = GENS[:2 * a.params.n]
    f, g = pe_to_sympy(a), pe_to_sympy(b)
    table = sympy_generator_brackets(a.params)
    expected = sum(
        sympy.diff(f, gp) * sympy.diff(g, gq) * table[gp, gq] for gp in gens for gq in gens
    )
    got = pb_bracket(a, b)
    assert sympy.expand(pe_to_sympy(got) - expected) == 0
    assert pe_stored_form(got)


@FAST
@given(bracket_operands())
def test_pb_bracket_matches_sympy_bivector(operands):
    assert_bracket_matches_sympy_bivector(*operands)


def many_mu_operands():
    """n = r = 3, a of 12 terms of degree 1..3 and b of 8 terms of degree
    1..2, each with 30 distinct mu-exponents: 30 vectors of [0, 3]^3 dealt
    out over its terms (2 or 3 to a term of a, 3 or 4 to a term of b), with
    rational coefficients of denominator 1, 2 or 3.  So every term pair of
    the bracket meets several mu-exponents on both sides."""
    rng = random.Random(30)
    params = WeylParams(3, 3, ((1, 0, 2), (0, -1, 1), (2, 1, 0)),
                        antisymmetric(3, 3, [(1, -2, 0), (2, 1, -1), (0, 2, 1)]))
    exponents = list(itertools.product(range(4), repeat=3))

    def element(count, top):
        monos = rng.sample([m for m in itertools.product(range(top + 1), repeat=6)
                            if 1 <= sum(m) <= top], count)
        vecs = rng.sample(exponents, 30)
        return PoissonElement(params, [
            (m, MuPoly(3, [(v, Fraction(rng.choice([-9, -5, -2, 1, 3, 7]), rng.randint(1, 3)))
                           for v in vecs[i::count]]))
            for i, m in enumerate(monos)])

    return element(12, 3), element(8, 2)


def test_pb_bracket_with_many_mu_exponents_matches_sympy_bivector():
    """900 pairs of operand mu-exponents, each a slice pair of the kernel."""
    a, b = many_mu_operands()
    for x in (a, b):
        assert len({v for _, c in x.terms for v, _ in c.terms}) == 30
    assert_bracket_matches_sympy_bivector(a, b)


@FAST
@given(weyl_elements, weyl_elements)
def test_commutator_is_the_difference_of_products(a, b):
    comm = wa_commutator(a, b)
    assert comm == a * b - b * a
    assert all(type(c) is QTScalar and stored_form(c) for _, c in comm.terms)
