"""qweyl against references that share no code with it.

``perfbench/oracle.py`` straightens free words by rewriting the leftmost
out-of-order pair with the five defining relations: no cache, no closed
form, no packed exponents and no qweyl import.  It also reads the CLI
grammar on its own and tests lattice saturation by minors.  It is loaded
from its file, not copied, so the benchmark and these tests check against
one copy.  The operands lean on same-index pairs ``x_i^a ... * y_i^b ...``,
where the engine takes its closed-form step, and on exponents large enough
to make the engine widen its packed fields.  hypothesis is installed where
the tests run but is not a declared dependency, so the module is skipped
without it.
"""

import importlib.util
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qweyl import (  # noqa: E402
    QTScalar,
    SpecializedAlgebra,
    WeylElement,
    WeylParams,
    cli,
    integer_kernel,
)
from qweyl.cli import DEFAULT_CONFIG, concrete_from_config, params_from_config  # noqa: E402
from qweyl.scalars import vec_add  # noqa: E402
from qweyl.spectra import lattice_contains  # noqa: E402
from qweyl.suites import random_params  # noqa: E402
from qweyl.weyl import StraighteningEngine  # noqa: E402

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# few examples, so the module stays fast; no example database is written
FAST = settings(max_examples=40, deadline=None, database=None)


def oracle_product(a: WeylElement, b: WeylElement) -> dict:
    """{monomial: coefficient terms in exponent order} of a*b by the oracle."""
    p = a.params
    product = oracle.naive_product(
        p.n, p.r, p.qexp, p.lexp,
        [(m, dict(c.terms)) for m, c in a.terms],
        [(m, dict(c.terms)) for m, c in b.terms],
    )
    return {m: tuple(sorted(c.items())) for m, c in product.items()}


def engine_product(a: WeylElement, b: WeylElement) -> dict:
    return {m: c.terms for m, c in (a * b).terms}


@st.composite
def instances(draw):
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vecs = st.tuples(*[st.integers(-2, 2)] * r)
    qexp = tuple(draw(vecs.filter(any)) for _ in range(n))
    lexp = [[(0,) * r] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(vecs)
            lexp[i][j] = v
            lexp[j][i] = tuple(-e for e in v)
    return WeylParams(n, r, qexp, tuple(map(tuple, lexp)))


@st.composite
def same_index_operands(draw):
    """(a, b) with x_i powers in a's terms and y_i powers on the same
    pairs in b's, each term topped up with any generators to degree <= 3.

    The oracle's time grows steeply with the degree: x3^3 * y3^3 takes
    0.07 s on an n = 3 instance, x3^4 * y3^4 4.4 s."""
    params = draw(instances())
    n, r = params.n, params.r
    pairs = draw(st.lists(st.integers(0, n - 1), max_size=3))
    coeffs = st.builds(
        QTScalar.monomial,
        st.tuples(*[st.integers(-1, 1)] * r),
        st.sampled_from([1, -1, 2, Fraction(1, 2)]),
    )

    def element(kind):  # kind 1: x_i, 0: y_i
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            m = [0] * (2 * n)
            for i in pairs:
                m[2 * i + kind] += 1
            extra = st.integers(0, 2 * n - 1)
            for slot in draw(st.lists(extra, max_size=3 - len(pairs))):
                m[slot] += 1
            terms.append((tuple(m), draw(coeffs)))
        return WeylElement(params, terms)

    return element(1), element(0)


@FAST
@given(same_index_operands())
def test_products_match_the_oracle(operands):
    a, b = operands
    assert engine_product(a, b) == oracle_product(a, b)


def test_same_index_ladder_matches_the_oracle(params3):
    """x_i^a * y_i^b for a, b <= 4 on the pairs with at most one pair below."""
    for i in (1, 2):
        x, y = WeylElement.generator(params3, "x", i), WeylElement.generator(params3, "y", i)
        for a in range(5):
            for b in range(5):
                assert engine_product(x**a, y**b) == oracle_product(x**a, y**b), (i, a, b)


# -- the engine's two closed forms, one call each ----------------------------------


def occupied_monomials(seed: int, count: int):
    """(instance, monomial) pairs: n <= 4 pairs, every slot occupied, entries <= 3."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        params = random_params(rng, n, rng.randint(1, 2))
        yield params, tuple(rng.randint(1, 3) for _ in range(2 * n))


def append(engine, m, p, e=1) -> dict:
    """m * g_p^e by one ``_acc_times_block`` call on the accumulator {m: 1}, as
    a map from (ordered monomial, packed exponent) to a nonzero rational."""
    return {(mm, x): c for mm, d in engine._acc_times_block({m: {0: 1}}, p, e).items()
            for x, c in d.items()}


def engine_table(engine, table: dict, n: int) -> dict:
    """An ``append`` or ``_times_z`` result in the oracle's form,
    {monomial on n pairs: {exponent vector: coefficient}}."""
    out: dict = {}
    for (m, e), c in table.items():
        out.setdefault(m + (0,) * (2 * n - len(m)), {})[engine._decoded[e]] = c
    return out


def test_generator_append_and_z_product_match_the_oracle():
    """``append(engine, m, p)`` is m * g_p for every slot p, and
    ``_times_z(L)`` is L * z_k for L = m on its first k <= 3 pairs."""
    for params, m in occupied_monomials(28, 12):
        n, engine = params.n, params.engine
        one = {(0,) * params.r: Fraction(1)}

        def oracle_times(left, right):
            return oracle.naive_product(n, params.r, params.qexp, params.lexp,
                                        [(left, one)], [(g, one) for g in right])

        unit = [tuple(int(u == p) for u in range(2 * n)) for p in range(2 * n)]
        for p in range(2 * n):
            got = engine_table(engine, append(engine, m, p), n)
            assert got == oracle_times(m, [unit[p]]), (m, p)
        for k in range(1, min(3, n) + 1):
            low = m[:2 * k] + (0,) * (2 * n - 2 * k)
            z = [(0,) * (2 * n)] + [vec_add(unit[2 * j], unit[2 * j + 1]) for j in range(k)]
            got = engine_table(engine, engine._times_z(m[:2 * k]), n)
            assert got == oracle_times(low, z), (m, k)


def test_block_appends_match_the_oracle():
    """``append(engine, m, p, e)`` is m * g_p^e for every slot p and e <= 3,
    n <= 3, with every slot of m occupied: below the last pair each block
    takes a block swap, and a y_i block under x_i the closed-form passes."""
    rng = random.Random(30)
    for n in (1, 2, 3, 2, 3):
        params = random_params(rng, n, rng.randint(1, 2))
        m, engine = tuple(rng.randint(1, 2) for _ in range(2 * n)), params.engine
        one = {(0,) * params.r: Fraction(1)}
        for p in range(2 * n):
            for e in (1, 2, 3):
                block = tuple(e * (u == p) for u in range(2 * n))
                want = oracle.naive_product(n, params.r, params.qexp, params.lexp,
                                            [(m, one)], [(block, one)])
                assert engine_table(engine, append(engine, m, p, e), n) == want, (m, p, e)


def test_rescaled_engine_matches_the_plain_one():
    """The same calls on the rescaled engine, through y_i = (q_i - 1) Y_i: if
    the Y-word has y-exponents a, its term Y^a' x^b' with coefficient c
    reads c prod (q_i - 1)^{a_i} = P prod (q_i - 1)^{a'_i}, P the plain
    engine's coefficient of y^a' x^b'."""
    for params, m in occupied_monomials(29, 12):
        plain, rescaled = params.engine, params.rescaled_engine
        factors = [params.q_scalar(i) - 1 for i in range(1, params.n + 1)]

        def weight(mono):
            out = QTScalar.one(params.r)
            for a, f in zip(mono[::2], factors):
                out = out * f**a
            return out

        def scalars(engine, table):
            return {mm: QTScalar(params.r, d)
                    for mm, d in engine_table(engine, table, params.n).items()}

        def check(word, call):
            got, want = scalars(rescaled, call(rescaled)), scalars(plain, call(plain))
            assert got.keys() == want.keys(), word
            for mm, c in got.items():
                assert c * weight(word) == want[mm] * weight(mm), (word, mm)

        for p in range(2 * params.n):
            check(m[:p] + (m[p] + 1,) + m[p + 1:], lambda e: append(e, m, p))
        for k in range(1, min(3, params.n) + 1):
            check(m[:2 * k], lambda e: e._times_z(m[:2 * k]))


# -- packed exponents: entries far beyond the narrowest field ---------------------


def monomial_element(params, *terms):
    """Sum of ``coeff * eta^vec * monomial`` for (monomial, vec, coeff) terms."""
    return WeylElement(params, [(m, QTScalar.monomial(v, c)) for m, v, c in terms])


@pytest.mark.parametrize("big", [2**40, 2**70])
def test_large_coefficient_exponents_match_the_oracle(params3, big):
    a = monomial_element(
        params3, ((0, 1, 0, 2, 0, 0), (big, -big), Fraction(1, 2)),
        ((1, 0, 0, 0, 0, 1), (-big, 1), -3),
    )
    b = monomial_element(
        params3, ((0, 0, 2, 0, 1, 0), (1, big), 1), ((0, 0, 0, 0, 0, 0), (big, big), 2),
    )
    assert engine_product(a, b) == oracle_product(a, b)
    assert engine_product(b, a) == oracle_product(b, a)


def large_instance():
    """n = 3, r = 2 with entries of s_i and L_ij in the thousands."""
    l12, l13, l23 = (3001, -1000), (-2000, 4999), (1234, 4321)
    neg = lambda v: tuple(-e for e in v)  # noqa: E731
    return WeylParams(
        3, 2, ((1000, -2999), (-4001, 1), (2500, 2500)),
        (((0, 0), l12, l13), (neg(l12), (0, 0), l23), (neg(l13), neg(l23), (0, 0))),
    )


def test_large_structure_constants_match_the_oracle():
    p = large_instance()
    x2, y2 = WeylElement.generator(p, "x", 2), WeylElement.generator(p, "y", 2)
    x3, y1 = WeylElement.generator(p, "x", 3), WeylElement.generator(p, "y", 1)
    for a, b in ((x2**2 * x3, y2**2 * y1), (x3 * x2 + y1, y2 * x3 - x2**2)):
        assert engine_product(a, b) == oracle_product(a, b)


def test_memos_after_widening_match_the_oracle(params3):
    """Ordinary products before and after large-exponent ones that widen the
    fields past 70 bits: every product matches the oracle at either width."""
    ordinary = (
        monomial_element(params3, ((0, 1, 0, 2, 0, 1), (1, 0), 1), ((1, 1, 0, 0, 0, 0), (0, -1), 2)),
        monomial_element(params3, ((0, 0, 2, 0, 1, 0), (0, 0), 1), ((1, 0, 0, 1, 0, 0), (1, 1), -1)),
    )
    big = monomial_element(params3, ((0, 0, 0, 1, 0, 1), (2**70, -(2**40)), 1))
    engine = params3.engine
    for a, b in (ordinary, (big, ordinary[1]), ordinary, (ordinary[0], big)):
        assert engine_product(a, b) == oracle_product(a, b)
    assert engine._half > 2**70


def test_width_guard_at_its_edge(monkeypatch, capsys):
    """A product whose width bound equals ``_half`` widens the fields first.
    On the built-in config, x2 * (eta^[2046,0]*y1) has A = 2046, growth
    M = 2 and D = 2, so the bound A + M D(D - 1)/2 is 2048, which is
    ``_half`` at ``MIN_BITS``; the result's exponent 2048 would wrap to -2048
    in a 12-bit field.  Both operands' exponents count: (eta^[1023,0]*x2) *
    (eta^[1023,0]*y1) meets the same edge with A = B = 1023.  Each product,
    on a new instance, matches the oracle, and ``nf`` prints it."""
    for left, right in ((0, 2046), (1023, 1023)):
        params = params_from_config(DEFAULT_CONFIG)
        engine = params.engine
        assert engine._half == 1 << (StraighteningEngine.MIN_BITS - 1) == 2048
        a = monomial_element(params, ((0, 0, 0, 1), (left, 0), 1))
        b = monomial_element(params, ((1, 0, 0, 0), (right, 0), 1))
        assert engine_product(a, b) == oracle_product(a, b) == {(1, 0, 0, 1): (((2048, 0), 1),)}
        assert engine._half > 2048
        monkeypatch.setattr(cli, "_held", None)  # nf on a new instance too
        assert cli.main(["nf", f"(eta^[{left},0]*x2)*(eta^[{right},0]*y1)"]) == 0
        assert capsys.readouterr().out == "eta^[2048,0]*y1*x2\n"


# -- the printed form read back by the oracle's grammar ---------------------------


@st.composite
def printable_elements(draw):
    params = draw(instances())
    n, r = params.n, params.r
    vecs = st.tuples(*[st.integers(-3, 3)] * r)
    rationals = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
    coeffs = st.lists(st.tuples(vecs, rationals), min_size=1, max_size=3)
    monos = st.tuples(*[st.integers(0, 2)] * (2 * n))
    terms = draw(st.lists(st.tuples(monos, coeffs), max_size=4))
    return WeylElement(params, [(m, QTScalar(r, c)) for m, c in terms])


def read_back(a: WeylElement) -> dict:
    """``str(a)`` evaluated by the oracle's reading of the grammar."""
    p = a.params
    words = oracle.free_polynomial(str(a), p.n, p.r)
    nf = oracle.straighten(p.n, p.r, p.qexp, p.lexp, words)
    return {m: tuple(sorted(c.items())) for m, c in nf.items()}


@FAST
@given(printable_elements())
def test_printed_elements_read_back_by_the_oracle(a):
    assert read_back(a) == {m: c.terms for m, c in a.terms}


def test_printed_forms_with_sign_and_parentheses(params3):
    leading_minus = monomial_element(
        params3, ((0, 0, 0, 0, 0, 0), (0, 0), Fraction(-3, 2)), ((0, 1, 1, 0, 0, 2), (1, -2), 1),
    )
    multi_term = WeylElement(params3, [
        ((2, 0, 0, 1, 0, 0), QTScalar(2, [((0, 0), 1), ((0, 1), -1), ((-1, 0), Fraction(1, 2))])),
        ((0, 0, 0, 0, 1, 0), QTScalar.monomial((0, 0), -1)),
    ])
    assert str(leading_minus).startswith("-") and "(" in str(multi_term)
    for a in (leading_minus, multi_term, -multi_term, WeylElement.zero(params3)):
        assert read_back(a) == {m: c.terms for m, c in a.terms}


# -- integer kernels against rational rank and saturation by minors ---------------


def test_integer_kernel_rank_and_saturation():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(60):
        ncols = rng.randint(1, 5)
        rows = [[rng.choice((1, 2, 3)) * rng.randint(-3, 3) for _ in range(ncols)]
                for _ in range(rng.randint(1, 4))]
        basis = integer_kernel(rows, ncols)
        assert len(basis) == ncols - sympy.Matrix(rows).rank()
        assert all(sum(a * u for a, u in zip(row, v)) == 0 for row in rows for v in basis)
        assert oracle.rational_rank(basis) == len(basis)
        assert oracle.is_saturated(basis)


@st.composite
def kernel_systems(draw):
    """At most 15 integer rows over at most 5 columns (the strata draw r*s
    rows over s columns), each row a small combination of k <= ncols base
    rows, so that kernels of every rank occur."""
    ncols = draw(st.integers(0, 5))
    k = draw(st.integers(0, ncols))
    entries = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    base = draw(st.lists(entries, min_size=k, max_size=k))
    combos = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)]
            for cs in draw(st.lists(combos, min_size=k, max_size=15))]
    return rows, ncols


@FAST
@given(kernel_systems())
def test_integer_kernel_is_the_reduced_hermite_basis(system):
    """The output is in reduced Hermite form (positive pivots in strictly
    increasing columns, entries above each pivot in [0, pivot)) and spans
    exactly the kernel: every row solves the system, every solution in the
    box [-2, 2]^ncols is in the span, and the span is saturated of full
    rank.  A lattice has one such basis, so this pins the output."""
    rows, ncols = system
    basis = integer_kernel(rows, ncols)
    pivots = [next(j for j, a in enumerate(v) if a) for v in basis]
    assert pivots == sorted(set(pivots))
    for i, (v, p) in enumerate(zip(basis, pivots)):
        assert v[p] > 0
        assert all(0 <= u[p] < v[p] for u in basis[:i])
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in basis)
    assert len(basis) == ncols - oracle.rational_rank(rows)
    assert oracle.is_saturated(basis)
    for u in product(range(-2, 3), repeat=ncols):
        solves = all(sum(a * x for a, x in zip(row, u)) == 0 for row in rows)
        assert solves == lattice_contains(basis, u)


# -- left terms that merge and cancel partway through the fold ---------------------


def test_left_terms_cancel_partway_through_the_fold():
    """In (y1*x1 + 1 - q1) * (y1*x1), appending y1 takes both left terms to
    y1, where (q1 - 1) and (1 - q1) cancel; only q1*y1^2*x1^2 is left."""
    p = params_from_config(DEFAULT_CONFIG)
    y1x1 = WeylElement.monomial(p, (1, 1, 0, 0))
    a = y1x1 + 1 - p.q_scalar(1)
    one_term = [WeylElement(p, [t]) for t in a.terms]
    assert len(one_term) == 2
    product = a * y1x1
    assert product == WeylElement.monomial(p, (2, 2, 0, 0), p.q_scalar(1))
    assert engine_product(a, y1x1) == oracle_product(a, y1x1)
    assert product == one_term[0] * y1x1 + one_term[1] * y1x1
    e_polys = concrete_from_config(DEFAULT_CONFIG, p)
    for lam in (Fraction(2), Fraction(1, 2)):
        alg = SpecializedAlgebra(p, lam, e_polys)
        sa, sb = alg.specialize(a), alg.specialize(y1x1)
        assert alg.mul(sa, sb) == alg.specialize(product)
        summed: dict = {}
        for m, c in sa.items():
            for mm, cc in alg.mul({m: c}, sb).items():
                summed[mm] = summed.get(mm, 0) + cc
        assert alg.mul(sa, sb) == {m: c for m, c in summed.items() if c}


def test_cancelled_left_terms_leave_the_fold(monkeypatch):
    """In (y1*x1 + 1 - q1) * (y1*x1*y2^3*x2^3) the monomial y1 cancels in
    the first block, where y1*x1 takes the closed form and 1 lands; it
    leaves the fold there, and every later block lands whole on what is
    left, so the fold takes one closed-form step."""
    p = params_from_config(DEFAULT_CONFIG)
    a = WeylElement.monomial(p, (1, 1, 0, 0)) + 1 - p.q_scalar(1)
    b = WeylElement.monomial(p, (1, 1, 3, 3))
    engine = p.engine
    lows, outputs = [], []
    times_z, block = type(engine)._times_z, type(engine)._acc_times_block

    def counted(self, low):
        lows.append(low)
        return times_z(self, low)

    def recorded(self, acc, q, e, scale=None, out=None):
        outputs.append(block(self, acc, q, e, scale, out))
        return outputs[-1]

    monkeypatch.setattr(type(engine), "_times_z", counted)
    monkeypatch.setattr(type(engine), "_acc_times_block", recorded)
    product = a * b
    assert lows == [()]  # y1*x1 times y1; block landings take no closed form
    assert len(outputs) == 4
    assert [m for out in outputs for m, d in out.items() if not d] == [(1, 0, 0, 0)]
    monkeypatch.undo()
    assert engine_product(a, b) == oracle_product(a, b)
    assert product == sum((WeylElement(p, [t]) * b for t in a.terms), WeylElement.zero(p))


# -- the fold's entry and exit: scaled first pass, one output table, stored form ---


def test_fold_entry_and_exit_match_the_oracle(params3):
    """Each right term's scalar is applied in the first pass of its fold,
    and every fold writes into one output table.  Right scalars with
    several eta-terms and factors over den > 1, a constant right term, a
    constant right operand, and right terms whose folds cancel at y1*x1,
    against the oracle and the sum of one-term products.  Coefficients are
    ints where integral and ``Fraction``s in lowest terms where not."""
    p = params3
    g = {f"{k}{i}": WeylElement.generator(p, k, i) for k in "yx" for i in (1, 2, 3)}
    q1 = p.q_scalar(1)
    mixed = QTScalar(2, [((0, 0), Fraction(2, 3)), ((1, -1), Fraction(-1, 6)), ((0, 1), 3)])
    left = g["x2"].scale(Fraction(1, 2)) + g["y2"].scale(QTScalar.monomial((1, 0), 3)) + 2
    right = WeylElement(p, [
        ((0,) * 6, mixed),
        ((1, 0, 0, 0, 0, 0), QTScalar(2, [((0, 0), Fraction(1, 2)), ((-1, 1), Fraction(5, 4))])),
        ((0, 0, 1, 1, 0, 0), QTScalar.monomial((1, 1), Fraction(-3, 2))),
    ])
    cases = [
        (left, right),
        (right, left),
        (left * g["x1"], WeylElement.scalar(p, mixed)),
        (g["x1"] + 1, g["y1"] * g["x1"] * q1 - g["y1"]),
    ]
    kinds = set()
    for a, b in cases:
        product = a * b
        assert engine_product(a, b) == oracle_product(a, b)
        assert product == sum((a * WeylElement(p, [t]) for t in b.terms), WeylElement.zero(p))
        for _, c in product.terms:
            for _, k in c.terms:
                assert type(k) is (int if k.denominator == 1 else Fraction), k
                kinds.add(type(k))
    assert kinds == {int, Fraction}
    assert all(m != (1, 1, 0, 0, 0, 0) for m, _ in (cases[-1][0] * cases[-1][1]).terms)


def meeting_operands(case: str, rng: random.Random):
    """(a, b), every coefficient 1, on a seeded instance of n <= 3 pairs,
    whose right terms write one monomial of the product's output table twice:

    * "trivial-swap": two-block right terms y_i x_j and x_i x_j, j > i,
      whose last pass, x_j onto nothing above pair j, moves packed scalars
      over uncopied; y_i x_i x_j comes from x_i * y_i x_j and y_i * x_i x_j;
    * "one-monomial": one-block right terms, y_i^2 from y_i * y_i and from
      1 * y_i^2, with y_i read again after the second write;
    * "closed-form": the last closed-form pass of x_i * y_i lands
      (q_i - 1) on the monomial 1 that the constant right term wrote."""
    n = rng.randint(2, 3)
    p = random_params(rng, n, rng.randint(1, 2))
    i = rng.randint(1, n - 1)
    y, x = WeylElement.generator(p, "y", i), WeylElement.generator(p, "x", i)
    if case == "trivial-swap":
        xj = WeylElement.generator(p, "x", rng.randint(i + 1, n))
        return x + y, y * xj + x * xj
    if case == "one-monomial":
        return 1 + y, y + y * y
    return 1 + x, 1 + y


@pytest.mark.parametrize("case", ["trivial-swap", "one-monomial", "closed-form"])
def test_writes_that_meet_in_the_output_table_match_the_oracle(case):
    """Products whose right terms write one monomial twice, against the
    oracle: a write onto a key already in the table adds, and no pass
    hands on the left operand's packed scalars, which the next right term
    reads again."""
    rng = random.Random(f"meeting-{case}")
    for _ in range(8):
        a, b = meeting_operands(case, rng)
        first, second = ({m for m, _ in (a * WeylElement(a.params, [t])).terms} for t in b.terms)
        assert first & second
        assert all(c == QTScalar.one(a.params.r) for _, c in (*a.terms, *b.terms))
        assert engine_product(a, b) == oracle_product(a, b)
