import gc
import random
import weakref
from fractions import Fraction

import pytest

from qweyl import (
    MuPoly,
    NotDivisibleError,
    PoissonElement,
    WeylElement,
    WeylParams,
    gamma1,
    jacobiator,
    p_z,
    pb_bracket,
    semiclassical_bracket,
    wa_commutator,
    wa_z,
)
from qweyl.cli import DEFAULT_CONFIG, params_from_config
from qweyl.poisson import _gen_bracket
from qweyl.quantum_plane import PLANE, PlaneElement
from qweyl.scalars import QTScalar, vec_add
from qweyl.suites import random_params, random_poisson, random_weyl
from qweyl.weyl import StraighteningEngine


def pgen(params, kind, i):
    return PoissonElement.generator(params, kind, i)


def test_bracket_same_index(params2):
    # {x1, y1} = mu1 (1 + y1 x1) for s1 = (1,0)
    got = pb_bracket(pgen(params2, "x", 1), pgen(params2, "y", 1))
    assert got == p_z(params2, 1).scale(MuPoly.variable(2, 0))


def test_bracket_antisymmetry_and_self(params2):
    rng = random.Random(2)
    for _ in range(50):
        a, b = random_poisson(rng, params2), random_poisson(rng, params2)
        assert pb_bracket(a, b) == -pb_bracket(b, a)
        assert pb_bracket(a, a) == PoissonElement.zero(params2)


def test_bracket_xx_example(params2):
    # {x2, x1} = -((s1 + L12) . mu) x1 x2 = -2 mu1 x1 x2
    got = pb_bracket(pgen(params2, "x", 2), pgen(params2, "x", 1))
    want = PoissonElement.monomial(
        params2, (0, 1, 0, 1), MuPoly(2, {(1, 0): -2})
    )
    assert got == want


def test_bracket_leibniz(params2):
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = (random_poisson(rng, params2) for _ in range(3))
        assert pb_bracket(a * b, c) == a * pb_bracket(b, c) + pb_bracket(a, c) * b


def test_jacobiator_zero(params2):
    y1, x1, x2 = pgen(params2, "y", 1), pgen(params2, "x", 1), pgen(params2, "x", 2)
    assert jacobiator(y1, x1, y1) == PoissonElement.zero(params2)
    assert jacobiator(x1, y1, x2) == PoissonElement.zero(params2)
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = (random_poisson(rng, params2) for _ in range(3))
        assert jacobiator(a, b, c) == PoissonElement.zero(params2)


def test_gamma1(params2):
    q1 = params2.q_scalar(1)
    a = WeylElement.monomial(params2, (1, 1, 0, 0), q1) + WeylElement.scalar(
        params2, q1 - 1
    )
    assert gamma1(a) == PoissonElement.monomial(params2, (1, 1, 0, 0))
    assert gamma1(WeylElement.one(params2)) == PoissonElement.one(params2)
    for i in range(3):
        assert gamma1(wa_z(params2, i)) == p_z(params2, i)


def test_semiclassical_examples(params2):
    x1 = WeylElement.generator(params2, "x", 1)
    y1 = WeylElement.generator(params2, "y", 1)
    assert semiclassical_bracket(x1, y1) == p_z(params2, 1).scale(MuPoly.variable(2, 0))
    a = random_weyl(random.Random(6), params2)
    assert semiclassical_bracket(a, a) == PoissonElement.zero(params2)
    # (x2, y1): coefficient (s1 + L12) . mu on y1 x2
    x2 = WeylElement.generator(params2, "x", 2)
    got = semiclassical_bracket(x2, y1)
    assert got == PoissonElement.monomial(params2, (1, 0, 0, 1), MuPoly(2, {(1, 0): 2}))


def test_semiclassical_matches_table_randomized():
    rng = random.Random(7)
    for _ in range(60):
        params = random_params(rng, rng.randint(1, 3), rng.randint(1, 2))
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        assert pb_bracket(gamma1(a), gamma1(b)) == semiclassical_bracket(a, b)


def test_collapsed_operands_give_the_formal_limit():
    """``semiclassical_bracket`` collapses its operands to their values at
    eta = 1 first; on 200 seeded pairs per class it returns the limit of the
    formal commutator, terms, order and coefficient types included."""
    def typed(x):
        return [(m, [(v, type(k), k) for v, k in c.terms]) for m, c in x.terms]

    def plane(rng):
        return PlaneElement(PLANE, [((rng.randint(0, 3), rng.randint(0, 3)), QTScalar(1, [
            ((rng.randint(-2, 2),), rng.choice([1, -2, Fraction(1, 2), Fraction(-4, 3)]))
            for _ in range(rng.randint(1, 3))])) for _ in range(rng.randint(1, 3))])

    rng = random.Random(46)
    for _ in range(200):
        params = random_params(rng, rng.randint(1, 3), rng.randint(1, 2))
        pairs = [(random_weyl(rng, params), random_weyl(rng, params)), (plane(rng), plane(rng))]
        for a, b in pairs:
            formal = PoissonElement(a.params, [(m, c.limit_div()) for m, c in
                                               wa_commutator(a, b).terms])
            assert typed(semiclassical_bracket(a, b)) == typed(formal), (a, b)


def test_poisson_normality_of_z(params3):
    # {y_j, z_i} = -(s_j . mu) y_j z_i and {x_j, z_i} = (s_j . mu) x_j z_i
    # for j <= i; both are 0 for j > i
    for i in range(1, 4):
        zi = p_z(params3, i)
        for kind in ("y", "x"):
            for j in range(1, 4):
                g = pgen(params3, kind, j)
                expected = PoissonElement.zero(params3)
                if j <= i:
                    expected = (g * zi).scale(MuPoly.linear(params3.s(j)))
                assert pb_bracket(g, zi) == (-expected if kind == "y" else expected)


def test_mu_forms_nonzero_and_skew(params3):
    # s_i . mu is a nonzero form since s_i != 0; the L matrix of forms is skew
    for i in range(1, 4):
        assert MuPoly.linear(params3.s(i)) != MuPoly.zero(params3.r)
    for i in range(1, 4):
        for j in range(1, 4):
            assert MuPoly.linear(params3.L(i, j)) == -MuPoly.linear(params3.L(j, i))


def test_bracket_coefficients_are_mu_linear(params2):
    rng = random.Random(8)
    for _ in range(30):
        a, b = random_weyl(rng, params2), random_weyl(rng, params2)
        for _, c in semiclassical_bracket(a, b).terms:
            assert c.degree() <= 1


def test_bracket_memo_does_not_keep_instances_alive():
    # exponents no other test uses, so no equal instance is cached anywhere
    params = WeylParams(2, 1, ((5,), (7,)), (((0,), (11,)), ((-11,), (0,))))
    ref = weakref.ref(params)
    a = pgen(params, "x", 2) * pgen(params, "y", 1) + pgen(params, "x", 1)
    assert pb_bracket(a, pgen(params, "y", 2) * pgen(params, "y", 1))
    del params, a
    gc.collect()
    assert ref() is None


def test_bracket_memo_holds_plain_tuples():
    params = random_params(random.Random(21), 3, 2)
    ones = PoissonElement(params, [((1,) * 6, 1)])  # every generator once
    assert pb_bracket(ones + pgen(params, "x", 3), ones + pgen(params, "y", 1))
    memo = params.poisson_brackets
    assert 0 < len(memo) <= (2 * params.n) ** 2

    def plain(x):  # ints and tuples only: no element, scalar or instance
        return type(x) is int or (type(x) is tuple and all(map(plain, x)))

    assert all(plain(key) and plain(table) for key, table in memo.items())


def constant_lifts(params, ta, tb):
    """pb_bracket of the Poisson elements with rational terms ``ta``, ``tb``
    and semiclassical_bracket of the Weyl elements with the same terms."""
    return (
        pb_bracket(PoissonElement(params, ta), PoissonElement(params, tb)),
        semiclassical_bracket(WeylElement(params, ta), WeylElement(params, tb)),
    )


@pytest.mark.parametrize("ta, tb", [
    ([((0, 0, 1, 0), 1)], [((0, 0, 0, 1), 1)]),  # {y2, x2}
    ([((0, 1, 1, 0), 1)], [((1, 0, 0, 1), 1)]),  # {y2*x1, x2*y1}
    ([((0, 0, 2, 0), 3)], [((0, 0, 0, 1), Fraction(1, 2))]),  # {3*y2^2, 1/2*x2}
])
def test_bracket_with_only_y_before_x(ta, tb):
    """Only m_{y_i} m'_{x_i} is nonzero, so the slot pair (x_i, y_i) is never
    met, yet its form s_i weighs the z_{i-1} term; a fresh instance starts
    with an empty memo."""
    params = random_params(random.Random(31), 2, 2)
    got, want = constant_lifts(params, ta, tb)
    assert got == want and got
    if ta[0][0] == (0, 0, 1, 0):  # {y2, x2} = -(s_2 . mu) z_2
        assert got == p_z(params, 2).scale(-MuPoly.linear(params.s(2)))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("e", [63, 64, 2**40])
def test_bracket_packing_width(r, e):
    """mu-exponents e on both sides reach 2e + 1 in every entry of the result,
    the most the packed fields must hold (127 = 2^7 - 1 for e = 63)."""
    params = WeylParams(2, r, ((1,) * r, (-1,) * r), (((0,) * r, (1,) * r), ((-1,) * r, (0,) * r)))
    big, one = (e,) * r, (0,) * (r - 1) + (1,)
    c1 = MuPoly(r, [(big, 1), ((0,) * r, Fraction(1, 2))])
    c2 = MuPoly(r, [(big, -3), (one, 1)])
    a = PoissonElement(params, [((1, 0, 0, 1), c1)])  # y1*x2
    b = PoissonElement(params, [((0, 1, 0, 0), c2)])  # x1
    # {y1 x2, x1} = y1 {x2, x1} + x2 {y1, x1}
    #             = -((2 s_1 + L_12) . mu) y1 x1 x2 - (s_1 . mu) x2
    s1 = params.s(1)
    want = PoissonElement(params, [
        ((1, 1, 0, 1), -MuPoly.linear(vec_add(vec_add(s1, s1), params.L(1, 2))) * c1 * c2),
        ((0, 0, 0, 1), -MuPoly.linear(s1) * c1 * c2),
    ])
    assert max(x for _, c in want.terms for v, _ in c.terms for x in v) == 2 * e + 1
    assert pb_bracket(a, b) == want
    assert pb_bracket(b, a) == -want


@pytest.mark.parametrize("ka, kb", [(1, 1), (3, 5), (7, -9)])
def test_bracket_field_bound_at_its_edge(ka, kb):
    """On the built-in config M = ``max_form_entry`` = 2, met by F_pq of
    {x1, x2} and {x2, y1} in both orders.  For one-term operands ka g_p and
    kb g_q the field of mu_1 holds ka kb F_pq, of magnitude N_a N_b M = B
    exactly, the most the width 2^bitlen(B) + 1 must hold; each bracket
    matches the commutator's limit on the WeylElement lifts."""
    params = params_from_config(DEFAULT_CONFIG)
    size = 2 * params.n
    bound = params.max_form_entry
    edges = [(p, q) for p in range(size) for q in range(size)
             if max(map(abs, _gen_bracket(params, p, q))) == bound]
    assert bound == 2 and len(edges) == 4
    for p, q in edges:
        ta = [(tuple(int(i == p) for i in range(size)), ka)]
        tb = [(tuple(int(i == q) for i in range(size)), kb)]
        got, want = constant_lifts(params, ta, tb)
        assert got == want
        assert max(abs(k) for _, c in got.terms for _, k in c.terms) == abs(ka * kb) * bound


def test_bracket_drops_cancelled_monomials():
    """In {y2 x2 + 2 y1 x1, x1 y2} the two term pairs meet at x1 y2 and at
    y1 x1^2 y2 with opposite coefficients; only x1 y2^2 x2 is left, also
    with a mu-dependent factor on the left operand."""
    params = WeylParams(2, 1, ((1,), (2,)), (((0,), (1,)), ((-1,), (0,))))
    ta, tb = [((0, 0, 1, 1), 1), ((1, 1, 0, 0), 2)], [((0, 1, 1, 0), 1)]
    got, want = constant_lifts(params, ta, tb)
    assert got == want
    assert got.terms == (((0, 1, 2, 1), MuPoly.variable(1, 0)),)
    c = MuPoly(1, [((3,), 1), ((0,), Fraction(1, 2))])
    got = pb_bracket(PoissonElement(params, ta).scale(c), PoissonElement(params, tb))
    assert got.terms == (((0, 1, 2, 1), MuPoly.variable(1, 0) * c),)


def test_bracket_coefficients_in_stored_form(params2):
    """Integral coefficients are ints, the others Fractions in lowest terms,
    over the common denominator 6 * 7 of the operands."""
    ta = [((1, 0, 0, 0), Fraction(1, 2)), ((0, 0, 1, 0), Fraction(2, 3))]
    tb = [((0, 1, 0, 0), 4), ((0, 0, 0, 1), Fraction(3, 7))]
    got, want = constant_lifts(params2, ta, tb)
    assert got == want
    coeffs = [k for _, c in got.terms for _, k in c.terms]
    assert all(type(k) is int or (type(k) is Fraction and k.denominator != 1) for k in coeffs)
    assert {type(k) for k in coeffs} == {int, Fraction}
    # {1/2 y1, 4 x1} = -2 (s_1 . mu) z_1 lands on 1 with the integer -2
    assert got.coefficient((0, 0, 0, 0)) == MuPoly(2, [((1, 0), -2), ((0, 1), Fraction(-2, 7))])


@pytest.mark.parametrize("r", [0, 1])
def test_bracket_without_generators_is_zero(r):
    params = WeylParams(0, r, (), ())
    a = PoissonElement.scalar(params, 3)
    b = PoissonElement.scalar(params, MuPoly(r, [((1,) * r, Fraction(1, 2))]))
    assert pb_bracket(a, b) == PoissonElement.zero(params)
    assert pb_bracket(a, b).terms == ()


def test_element_classes_do_not_mix(params2):
    with pytest.raises(TypeError):
        WeylElement.one(params2) + PoissonElement.one(params2)
    with pytest.raises(TypeError):
        PoissonElement.one(params2) * WeylElement.one(params2)
    with pytest.raises(TypeError):
        WeylElement.one(params2) * MuPoly.one(2)
    assert WeylElement.one(params2) != PoissonElement.one(params2)


def test_element_errors_and_repr_name_the_concrete_class(params2):
    for cls in (WeylElement, PoissonElement):
        elem = cls.generator(params2, "y", 1)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            elem.terms = ()
        assert repr(elem) == f"{cls.__name__}(y1)"
        assert type(elem * elem) is cls and type(elem ** 2) is cls


def test_p_z_builds_poisson_elements(params3):
    assert all(type(p_z(params3, i)) is PoissonElement for i in range(4))
    with pytest.raises(ValueError):
        p_z(params3, 4)
    # the one constructor of a tagged generator builds z_i by ``z``
    for cls in (PoissonElement, WeylElement):
        for i in range(4):
            z = cls.generator(params3, "z", i)
            assert type(z) is cls and z == cls.z(params3, i)
        for i in (-1, 4):
            with pytest.raises(ValueError, match=f"^z index {i} out of range 0..3$"):
                cls.generator(params3, "z", i)


def test_semiclassical_bracket_leaves_the_t_equals_one_check_to_limit_div(params2, monkeypatch):
    """A commutator coefficient that does not vanish at t = 1 is caught once,
    by ``QTScalar.limit_div``."""
    # a commutator that keeps a's terms does not vanish at t = 1
    monkeypatch.setattr(StraighteningEngine, "q_commutator", lambda self, ta, tb, c: dict(ta))
    x1, y1 = WeylElement.generator(params2, "x", 1), WeylElement.generator(params2, "y", 1)
    with pytest.raises(NotDivisibleError, match="nonzero at t=1"):
        semiclassical_bracket(x1, y1)


def test_bracket_and_gamma1_reject_other_element_classes():
    """A Weyl element's eta-coefficients are not mu-polynomials: bracketing
    one used to return a "MuPoly" with a negative exponent, and gamma1 of a
    Poisson element failed on its scalars.  Both name the class instead."""
    from qweyl.cli import DEFAULT_CONFIG, params_from_config

    params = params_from_config(DEFAULT_CONFIG)
    w = WeylElement.monomial(params, (0, 1, 0, 0), QTScalar.monomial((1, -1)))
    y1 = pgen(params, "y", 1)
    for a, b in ((w, y1), (y1, w)):
        with pytest.raises(TypeError, match="WeylElement"):
            pb_bracket(a, b)
    with pytest.raises(TypeError, match="PoissonElement"):
        gamma1(y1)


def test_max_form_entry_is_the_largest_generator_table_entry():
    """The cached bound M that sizes ``pb_bracket``'s fields is the largest
    |entry| of any F_pq of the table, read off ``_gen_bracket`` itself."""
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        params = random_params(rng, n, rng.randint(1, 3))
        table = [_gen_bracket(params, p, q) for p in range(2 * n) for q in range(2 * n)]
        assert params.max_form_entry == max(abs(x) for f in table for x in f)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("e", [63, 200])
def test_bracket_numerator_field_width(r, e):
    """Numerators near 2^e reach the width bound B = N_a N_b M of
    ``pb_bracket`` in every field, all with one sign: {y2^2, y1^3} =
    2 * 3 * (L_21 . mu) y1^3 y2^2 with L_21 = (M, ..., M) the largest entry
    of the instance.  Over the common denominator 3 the numerators are
    2^e - 1 and 3 (2^e + 1), so N_a = 2 (2^e - 1), N_b = 9 (2^e + 1), and
    each field holds 3 (2^e - 1)(2^e + 1) * 6 * M = B before the division
    by 3 * 3.  One bit less and the fields wrap."""
    M = 5
    params = WeylParams(2, r, ((1,) * r, (1,) * r), (((0,) * r, (-M,) * r), ((M,) * r, (0,) * r)))
    assert params.max_form_entry == M
    a = PoissonElement(params, [((0, 0, 2, 0), Fraction(2**e - 1, 3))])  # y2^2
    b = PoissonElement(params, [((3, 0, 0, 0), 2**e + 1)])  # y1^3
    bound = 2 * (2**e - 1) * 9 * (2**e + 1) * M
    want = PoissonElement(params, [((3, 0, 2, 0), MuPoly.linear((bound // 9,) * r))])
    assert pb_bracket(a, b) == want
    assert pb_bracket(b, a) == -want
    assert {c * 9 for _, c in pb_bracket(a, b).terms[0][1].terms} == {bound}
