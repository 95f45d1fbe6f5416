import copy
import gc
import operator
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from qweyl import (
    LocalizationRequiredError,
    MaltsiniotisElement,
    MuPoly,
    ParamsMismatchError,
    PoissonElement,
    QTScalar,
    RankMismatchError,
    SpecializedAlgebra,
    WeylElement,
    WeylParams,
    build_e_family,
    from_maltsiniotis,
    gamma1,
    pb_bracket,
    semiclassical_bracket,
    wa_commutator,
    wa_z,
)
from qweyl.cli import DEFAULT_CONFIG, params_from_config
from qweyl.quantum_plane import PLANE, PlaneElement
from qweyl import weyl
from qweyl.suites import ALL_SUITES, DEFAULT_SEED, random_params, random_weyl
from qweyl.weyl import StraighteningEngine, _Decoder


def gens(params):
    out = {}
    for i in range(1, params.n + 1):
        out[f"y{i}"] = WeylElement.generator(params, "y", i)
        out[f"x{i}"] = WeylElement.generator(params, "x", i)
    return out


# -- parameter validation -------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        WeylParams(1, 2, (((0, 0)),), (((0, 0),),))  # s_1 = 0
    with pytest.raises(ValueError):
        WeylParams(2, 1, ((1,), (1,)), (((0,), (1,)), ((1,), (0,))))  # not antisym
    with pytest.raises(ValueError):
        WeylParams(1, 1, ((1,),), (((2,),),))  # nonzero diagonal
    # degenerate n=0 instance is allowed
    p0 = WeylParams(0, 1, (), ())
    assert WeylElement.one(p0) * WeylElement.one(p0) == WeylElement.one(p0)


@pytest.mark.parametrize("n, r, qexp, lexp, message", [
    (1, 1.0, ((1,),), (((0,),),), "must be ints"),  # a float rank
    (True, 1, ((1,),), (((0,),),), "must be ints"),  # a bool is not a size
    (2.0, 1, ((1,), (1,)), (((0,), (0,)), ((0,), (0,))), "must be ints"),
    (0, -3, (), (), "must be nonnegative"),
    (-1, 1, (), (), "must be nonnegative"),
])
def test_params_reject_bad_sizes(n, r, qexp, lexp, message):
    """n and r are exactly ints, and neither is negative."""
    with pytest.raises(ValueError, match=message):
        WeylParams(n, r, qexp, lexp)
    assert WeylParams(0, 0, (), ()).r == 0  # the empty instance of rank 0 stays valid


@pytest.mark.parametrize("q, lam", [
    ([[1.5]], [[[0]]]),     # a float s_1 entry
    ([[1]], [[[0.9]]]),     # a float L_11 entry
    ([[True]], [[[0]]]),    # a bool is not an exponent
    ([["1"]], [[[0]]]),
])
def test_from_coordinate_matrices_rejects_non_integers(q, lam):
    with pytest.raises(ValueError, match="must have integer entries"):
        WeylParams.from_coordinate_matrices(1, 1, q, lam)


def test_params_reject_non_integer_exponents():
    with pytest.raises(ValueError, match="s_1 = .* must have integer entries"):
        WeylParams(1, 1, ((1.5,),), (((0,),),))
    with pytest.raises(ValueError, match="L_12 = .* must have integer entries"):
        WeylParams(2, 1, ((1,), (1,)), (((0,), (0.0,)), ((0,), (0,))))


@pytest.mark.parametrize("m", [(0.5, 0), (1.0, 0), (True, 0), (0, -1), (1,), (0, 0, 0)])
@pytest.mark.parametrize("cls", [WeylElement, PoissonElement])
def test_element_rejects_bad_monomials(cls, m):
    p = WeylParams(1, 1, ((1,),), (((0,),),))
    with pytest.raises(ValueError, match="bad monomial exponent tuple"):
        cls.monomial(p, m)


@pytest.mark.parametrize("i", [True, 1.0, "1"])
@pytest.mark.parametrize("build", [
    lambda p, i: WeylElement.generator(p, "x", i),
    lambda p, i: WeylElement.z(p, i),
], ids=["generator", "z"])
def test_generator_indices_are_ints(build, i):
    """A generator or z index is exactly an ``int``: a bool, a float or a
    string raises a one-line ``ValueError``, not a ``TypeError`` from
    indexing, and never builds x1 from ``True``."""
    p = WeylParams(1, 1, ((1,),), (((0,),),))
    with pytest.raises(ValueError, match=r"index .* must be an int$"):
        build(p, i)


ETA3 = QTScalar.monomial((1, 2, 3))


@pytest.mark.parametrize("build", [
    lambda p: WeylElement(p, [((0, 0, 0, 0), ETA3)]),
    lambda p: WeylElement(p, {(1, 0, 0, 0): ETA3}),
    lambda p: PoissonElement(p, [((1, 0, 0, 0), MuPoly.constant(5, 1))]),
    lambda p: PlaneElement(PLANE, [((1, 0), QTScalar.monomial((1, 2)))]),
    lambda p: WeylElement.scalar(p, ETA3),
    lambda p: WeylElement.generator(p, "x", 1) + ETA3,
    lambda p: ETA3 + WeylElement.generator(p, "x", 1),
    lambda p: WeylElement.zero(p).scale(ETA3),
    lambda p: PoissonElement.zero(p).scale(MuPoly.constant(3, 1)),
], ids=["weyl", "weyl-mapping", "poisson", "plane", "scalar", "x1+c", "c+x1",
        "weyl-zero-scale", "poisson-zero-scale"])
def test_coefficient_of_another_rank_is_rejected(params2, build):
    """A coefficient is a scalar of its instance's rank on every route in."""
    with pytest.raises(RankMismatchError, match=r"^rank mismatch: \d vs [12]$"):
        build(params2)


def test_from_coordinate_matrices(params2):
    built = WeylParams.from_coordinate_matrices(
        2, 2, [[1, 0], [0, 1]], [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]]
    )
    assert built.s(1) == (1, 0)
    assert built.L(1, 2) == (1, 0)
    assert built == params2


# -- multiplication ---------------------------------------------------------------


def test_defining_relation_same_index(params2):
    g = gens(params2)
    q1 = params2.q_scalar(1)
    lhs = g["x1"] * g["y1"]
    rhs = (g["y1"] * g["x1"]).scale(q1) + WeylElement.scalar(params2, q1 - 1)
    assert lhs == rhs


def test_unit_and_scalars(params2):
    a = random_weyl(random.Random(3), params2)
    assert WeylElement.one(params2) * a == a
    assert a * WeylElement.one(params2) == a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


def test_cross_index_swap(params2):
    g = gens(params2)
    # x2 y1 = q1 lam12 y1 x2; with s1=(1,0), L12=(1,0) the scalar is eta^[2,0]
    assert g["x2"] * g["y1"] == (g["y1"] * g["x2"]).scale(QTScalar.monomial((2, 0)))


def test_two_step_straightening_oracle(params2):
    # y2 (y1 x1): moving y2 first past x1 then past y1 picks up lam12*lam21=1,
    # so the product is exactly the ordered monomial y1 x1 y2.
    g = gens(params2)
    prod = g["y2"] * (g["y1"] * g["x1"])
    assert prod == WeylElement.monomial(params2, (1, 1, 1, 0))


def test_mul_params_mismatch(params2, params3):
    with pytest.raises(ParamsMismatchError):
        WeylElement.one(params2) * WeylElement.one(params3)


def test_associativity_randomized():
    rng = random.Random(17)
    for _ in range(60):
        params = random_params(rng, rng.randint(1, 3), rng.randint(1, 2))
        a, b, c = (random_weyl(rng, params) for _ in range(3))
        assert (a * b) * c == a * (b * c)


# -- commutators and the z family ---------------------------------------------------


def test_commutator_examples(params2):
    g = gens(params2)
    q1 = params2.q_scalar(1)
    assert wa_commutator(g["x1"], g["y1"]) == wa_z(params2, 1).scale(q1 - 1)
    a = random_weyl(random.Random(5), params2)
    assert wa_commutator(a, a) == WeylElement.zero(params2)
    z1, z2 = wa_z(params2, 1), wa_z(params2, 2)
    assert wa_commutator(z1, z2) == WeylElement.zero(params2)


def test_commutators_run_on_the_engine_of_their_class(params2):
    """ab - ba in the rescaled presentation and the plane, not on the plain
    engine: x1 Y1 - Y1 x1 = 1 + (q1 - 1) Y1 x1 and x y - y x = (t - 1) y x.
    The Poisson limit has no engine and no commutator."""
    x1, y1 = (MaltsiniotisElement.generator(params2, k, 1) for k in "xy")
    assert str(wa_commutator(x1, y1)) == "1 + (-1 + eta^[1,0])*y1*x1"
    assert str(wa_commutator(PlaneElement.x(), PlaneElement.y())) == "(-1 + eta^[1])*y*x"
    rng = random.Random(31)
    for cls, params in ((WeylElement, params2), (MaltsiniotisElement, params2),
                        (PlaneElement, PLANE)):
        for _ in range(10):
            a, b = (cls(params, random_weyl(rng, params).terms) for _ in range(2))
            comm = wa_commutator(a, b)
            assert type(comm) is cls and comm == a * b - b * a
    x1, y1 = (PoissonElement.generator(params2, k, 1) for k in "xy")
    with pytest.raises(TypeError, match="^no commutator of PoissonElements: the Poisson"):
        wa_commutator(x1, y1)


def test_element_classes_do_not_mix(params2):
    """y1 and the rescaled Y1 = (q1 - 1)^{-1} y1 are different elements, and
    a Weyl element of the plane's shape is not a plane element: across
    classes, sums, products and commutators raise and nothing compares
    equal.  A map defined on one class rejects the others by name: Y1 has
    no classical limit and no specialization, and only a rescaled element
    is mapped back from the rescaled presentation."""
    y1, big_y1 = (cls.generator(params2, "y", 1) for cls in (WeylElement, MaltsiniotisElement))
    pairs = [(y1, big_y1), (WeylElement.generator(PLANE, "y", 1), PlaneElement.y())]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        assert a.terms == b.terms and not a == b
        for op in (operator.add, operator.sub, operator.mul, wa_commutator):
            with pytest.raises(TypeError):
                op(a, b)
    algebra = SpecializedAlgebra(params2, 2, build_e_family(2, [3, 5], [1, 1]))
    wrong = [
        (gamma1, big_y1, "MaltsiniotisElement"),
        (gamma1, gamma1(y1), "PoissonElement"),
        (algebra.specialize, big_y1, "MaltsiniotisElement"),
        (algebra.specialize, gamma1(y1), "PoissonElement"),
        (from_maltsiniotis, y1.scale(params2.q_scalar(1) - 1), "WeylElement"),
        (lambda a: semiclassical_bracket(a, a), big_y1, "MaltsiniotisElement"),
    ]
    for f, a, name in wrong:
        with pytest.raises(TypeError, match=name):
            f(a)
    assert semiclassical_bracket(PlaneElement.x(), PlaneElement.y())  # the plane's is {x, y} = mu1 x y


def big_instance(n, r, big):
    """s_i and L_ij with entries of order ``big``; s_1 = big * (1, 2, ...)."""
    qexp = tuple(tuple(big * (i + k + 1) for k in range(r)) for i in range(n))
    lexp = [[(0,) * r] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(big * (j - i) - (k + 1) * (i + 2 * j) for k in range(r))
            lexp[i][j], lexp[j][i] = v, tuple(-e for e in v)
    return WeylParams(n, r, qexp, tuple(map(tuple, lexp)))


@pytest.mark.parametrize("big", [2**40, 2**70])
@pytest.mark.parametrize("n, r", [(1, 1), (2, 3), (3, 2)])
def test_q_commutators_match_twisted_products(n, r, big):
    params = big_instance(n, r, big)
    engine = params.engine
    rng = random.Random(n * 10 + r)
    g = list(gens(params).values()) + [wa_z(params, i) for i in range(1, n + 1)]
    # s_1 + (1, ..., 1), one off the torus-table exponent of (z_1, y_1):
    # the residues are nonzero
    c = tuple(big * (k + 1) + 1 for k in range(r))
    c_rev = tuple(-e for e in c)
    # first, on narrow fields, a pair whose fold moves no exponent: only
    # the shift by c asks for wider fields
    a, b = g[0], WeylElement.scalar(params, 2)
    for _ in range(7):
        ab, ba = engine.q_commutators(a.terms, b.terms, c, c_rev)
        want_ab = a * b - (b * a).scale(QTScalar.monomial(c))
        want_ba = b * a - (a * b).scale(QTScalar.monomial(c_rev))
        assert want_ab and want_ba
        assert WeylElement._from_sums(params, ab) == want_ab
        assert WeylElement._from_sums(params, ba) == want_ba
        (same,) = engine.q_commutators(a.terms, a.terms, c)
        assert WeylElement._from_sums(params, same) == (a * a).scale(1 - QTScalar.monomial(c))
        a = rng.choice(g) * rng.choice(g) + QTScalar.monomial((big,) * r, Fraction(1, 2))
        b = rng.choice(g).scale(QTScalar.monomial(tuple(range(r)), 3)) - rng.choice(g)
    assert engine._half > 2 * big


def twisted_difference(left: dict, right: dict, c) -> dict:
    """left - eta^c right on {monomial: QTScalar} maps, zero entries left out."""
    out = dict(left)
    for m, k in right.items():
        out[m] = out.get(m, QTScalar.zero(len(c))) - QTScalar.monomial(c) * k
    return {m: k for m, k in out.items() if k}


def test_q_commutators_with_two_exponents_match_mul_terms():
    """``q_commutators(a, b, c, c')`` gives ab - eta^c ba and ba - eta^c' ab,
    as built from ``mul_terms``, on seeded pairs with n <= 3 and random c,
    c'.  The second difference reads ab after the first is taken, so the
    first must leave ab's fold as it was."""
    rng = random.Random(41)
    for _ in range(60):
        r = rng.randint(1, 2)
        params = random_params(rng, rng.randint(1, 3), r)
        engine = params.engine
        a, b = (random_weyl(rng, params).terms for _ in range(2))
        c, c2 = (tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(2))
        ab, ba = engine.mul_terms(a, b), engine.mul_terms(b, a)
        assert engine.q_commutators(a, b, c, c2) == [
            twisted_difference(ab, ba, c), twisted_difference(ba, ab, c2)]


def test_z_values(params2):
    assert wa_z(params2, 0) == WeylElement.one(params2)
    assert wa_z(params2, 1) == WeylElement.one(params2) + WeylElement.monomial(
        params2, (1, 1, 0, 0)
    )
    assert wa_z(params2, 2) == wa_z(params2, 1) + WeylElement.monomial(
        params2, (0, 0, 1, 1)
    )
    with pytest.raises(ValueError):
        wa_z(params2, 3)


def test_divisibility_flags(params2):
    g = gens(params2)
    q1 = params2.q_scalar(1)
    assert not gamma1(g["y1"].scale(q1 - 1))
    assert gamma1(g["y1"])
    rng = random.Random(9)
    for _ in range(50):
        a, b = random_weyl(rng, params2), random_weyl(rng, params2)
        assert not gamma1(wa_commutator(a, b))


# -- the rescaling map ----------------------------------------------------------------


def test_rescaling_generators(params2):
    x1, y1 = (MaltsiniotisElement.generator(params2, k, 1) for k in "xy")
    assert from_maltsiniotis(x1) == WeylElement.generator(params2, "x", 1)
    q1 = params2.q_scalar(1)
    assert from_maltsiniotis((q1 - 1) * y1) == WeylElement.generator(
        params2, "y", 1
    )


def test_rescaling_needs_localization(params2):
    with pytest.raises(LocalizationRequiredError):
        from_maltsiniotis(MaltsiniotisElement.generator(params2, "y", 1))


def test_rescaling_kills_defining_relation(params2):
    # x2 y2 - q2 y2 x2 - 1 - (q1 - 1) y1 x1  maps to zero
    g = {f"{k}{i}": MaltsiniotisElement.generator(params2, k, i) for i in (1, 2) for k in "yx"}
    one = MaltsiniotisElement.one(params2)
    q1, q2 = params2.q_scalar(1), params2.q_scalar(2)
    rel = g["x2"] * g["y2"] - q2 * g["y2"] * g["x2"] - one - (q1 - 1) * g["y1"] * g["x1"]
    assert from_maltsiniotis(rel) == WeylElement.zero(params2)


LOCALIZE = "term {} does not clear the denominator (q{} - 1); localization required"
# entries near 2^40 in s_i and L_ij
WIDE = WeylParams(2, 2, ((2**40 + 1, -3), (-7, 2**40 - 1)),
                  (((0, 0), (2**40, -1)), ((-2**40, 1), (0, 0))))


def q_minus_1_powers(params, m, pairs) -> QTScalar:
    """prod over the pairs i in ``pairs`` of (q_i - 1)^{a_i}, a_i the
    exponent of y_i in m."""
    out = QTScalar.one(params.r)
    for i in pairs:
        out = out * (params.q_scalar(i) - 1) ** m[2 * (i - 1)]
    return out


def rescaled(a: WeylElement) -> MaltsiniotisElement:
    """The preimage of ``a`` under the rescaling map, by multiplication
    alone: each y^a x^b coefficient times prod (q_i - 1)^{a_i}."""
    pairs = range(1, a.params.n + 1)
    return MaltsiniotisElement(a.params, [(m, c * q_minus_1_powers(a.params, m, pairs))
                                          for m, c in a.terms])


def test_rescaling_division_clears_factor():
    params = WeylParams(1, 2, ((2, -3),), (((0, 0),),))  # s_1 of mixed sign
    q1 = params.q_scalar(1)
    c = (q1 + 2) * QTScalar.monomial((-1, 1))
    y1 = MaltsiniotisElement.generator(params, "y", 1)
    assert from_maltsiniotis(y1.scale((q1 - 1) * c)) == WeylElement.generator(
        params, "y", 1).scale(c)


def test_rescaling_division_rejects_nonmultiple(params2):
    y1, y2 = (MaltsiniotisElement.generator(params2, "y", i) for i in (1, 2))
    with pytest.raises(LocalizationRequiredError) as err:
        from_maltsiniotis(y1)
    assert str(err.value) == LOCALIZE.format("y1", 1)
    # one line holding two terms 10^9 apart: rejected by its sum, not by
    # walking the gap
    with pytest.raises(LocalizationRequiredError) as err:
        from_maltsiniotis(y2.scale(QTScalar.monomial((0, 10**9)) + 1))
    assert str(err.value) == LOCALIZE.format("(1 + eta^[0,1000000000])*y2", 2)
    # eta^[1,0] and eta^[-2,0] lie on two lines of s_1 = (2, 8), keyed by
    # (1, 0) and (0, 8): one packed int in fields that hold the exponents
    # but not the keys
    params = WeylParams(1, 2, ((2, 8),), (((0, 0),),))
    term = MaltsiniotisElement.monomial(
        params, (1, 0), QTScalar.monomial((1, 0)) - QTScalar.monomial((-2, 0)))
    with pytest.raises(LocalizationRequiredError) as err:
        from_maltsiniotis(term)
    assert str(err.value) == LOCALIZE.format("(-eta^[-2,0] + eta^[1,0])*y1", 1)


def test_rescaling_division_randomized():
    """The rescaling map undoes multiplication by prod (q_i - 1)^{a_i} on
    random instances (s_i of mixed sign, and entries near 2^40).  A
    remainder c eta^w that survives b of the a_i divisions by (q_i - 1)
    fails the next one, and the error shows the quotient reached."""
    rng = random.Random(31)
    instances = [random_params(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(40)]
    for params in instances + [WIDE] * 5:
        a = random_weyl(rng, params)
        assert from_maltsiniotis(rescaled(a)) == a
        i = rng.randint(1, params.n)
        m = [rng.randint(0, 2) for _ in range(2 * params.n)]
        m[2 * (i - 1)] += 1
        m = tuple(m)
        b = rng.randrange(m[2 * (i - 1)])
        rest = QTScalar.monomial(tuple(rng.randint(-2, 2) for _ in range(params.r)),
                                 rng.choice([-2, 1, Fraction(1, 3)]))
        d_i = params.q_scalar(i) - 1
        bad = rescaled(a) + MaltsiniotisElement.monomial(
            params, m, rest * q_minus_1_powers(params, m, range(1, i)) * d_i**b)
        later = q_minus_1_powers(params, m, range(i + 1, params.n + 1))
        reached = MaltsiniotisElement.monomial(
            params, m, rest + a.coefficient(m) * d_i ** (m[2 * (i - 1)] - b) * later)
        with pytest.raises(LocalizationRequiredError) as err:
            from_maltsiniotis(bad)
        assert str(err.value) == LOCALIZE.format(reached, i)



@pytest.mark.parametrize("slot, corrupted", [
    (6, ((1, 1), (0, -1), (2, 1))),  # z-step factor q - 1 + q^2
    (6, ((0, 1),)),  # the plain engine's z-step factor
    (5, lambda s: [(j, 1) for j in range(s + 1)]),  # [s + 1]_q for [s]_q
])
def test_rescaling_relations_catch_a_corrupted_rescaled_engine(monkeypatch, slot, corrupted):
    """The suite compares the rescaled engine with the plain one, so a wrong
    per-pair factor in ``rescaled_engine`` alone makes it fail."""
    build = StraighteningEngine.__init__

    def build_corrupted(self, *args):
        if len(args) == 7:  # the rescaled engine; the plain one takes the defaults
            args = args[:slot] + (corrupted,) + args[slot + 1:]
        build(self, *args)

    assert ALL_SUITES["rescaling-relations"](DEFAULT_SEED).passed
    monkeypatch.setattr(StraighteningEngine, "__init__", build_corrupted)
    result = ALL_SUITES["rescaling-relations"](DEFAULT_SEED)
    assert not result.passed and result.detail.startswith("nonzero image at n=")


# -- printing ---------------------------------------------------------------------------


def test_element_str(params2):
    g = gens(params2)
    q1 = params2.q_scalar(1)
    assert str(WeylElement.zero(params2)) == "0"
    assert str(g["y1"] * g["x2"]) == "y1*x2"
    assert str(g["x1"] * g["y1"]) == "(-1 + eta^[1,0]) + eta^[1,0]*y1*x1"
    assert str(-g["y1"]) == "-y1"
    assert str(g["y1"].scale(q1)) == "eta^[1,0]*y1"


def spy(monkeypatch, calls, *targets):
    """Record in ``calls`` the name of each call to the (owner, name) targets."""
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)


def test_block_landings_take_no_single_append(monkeypatch):
    """A block g_p^e appended to a monomial with nothing above slot p lands
    in one step, whatever e is: the only ``_add_shifted`` call of each
    product is the first pass's scaled copy of its one left term, and no
    closed form runs, so large powers of one generator, and x1^3 times
    one, take no single append."""
    p = params_from_config(DEFAULT_CONFIG)
    g = gens(p)
    calls = []
    spy(monkeypatch, calls, (weyl, "_add_shifted"), (StraighteningEngine, "mul_terms"),
        (StraighteningEngine, "_times_z"))
    assert g["y1"] ** 10**6 == WeylElement.monomial(p, (10**6, 0, 0, 0))
    assert g["x1"] ** 3 * g["y2"] ** 10**6 == WeylElement.monomial(p, (0, 3, 10**6, 0))
    assert calls.count("_add_shifted") == calls.count("mul_terms") > 20
    assert "_times_z" not in calls
    assert g["x1"] ** 10**11 == WeylElement.monomial(p, (0, 10**11, 0, 0))


def test_block_swap_takes_one_step(monkeypatch):
    """x1^(10^6) passes y2^(10^6) in one block swap: the swap constant
    lam_12 = eta^[1,0] is raised to the power 10^6 * 10^6 once, in one
    ``_add_shifted`` call that also applies the right term's scalar, with
    no closed form, where single appends would pass over the accumulator
    10^6 times."""
    p = params_from_config(DEFAULT_CONFIG)
    y2, x1 = WeylElement.generator(p, "y", 2) ** 10**6, WeylElement.generator(p, "x", 1) ** 10**6
    calls = []
    spy(monkeypatch, calls, (weyl, "_add_shifted"), (StraighteningEngine, "_times_z"))
    assert y2 * x1 == WeylElement.monomial(p, (0, 10**6, 10**6, 0),
                                           QTScalar.monomial((10**12, 0)))
    assert calls == ["_add_shifted"]


def test_generator_append_takes_one_call(params3, monkeypatch):
    """Appending y2 under the blocks of pair 3 and onto x2 (the closed form)
    is one ``_acc_times_block`` call and one ``_times_z`` call, with no
    nested call however many blocks it passes; a second append repeats both
    calls and the result, as nothing is kept between them."""
    engine = params3.engine
    m = (1, 2, 1, 3, 2, 1)
    calls = []
    spy(monkeypatch, calls, (StraighteningEngine, "_acc_times_block"),
        (StraighteningEngine, "_times_z"))
    first = engine._acc_times_block({m: {0: 1}}, 2, 1)
    assert calls == ["_acc_times_block", "_times_z"]
    assert engine._acc_times_block({m: {0: 1}}, 2, 1) == first
    assert calls == ["_acc_times_block", "_times_z"] * 2


def test_closed_form_factors_are_built_once_per_block_call(params3, monkeypatch):
    """One ``_acc_times_block`` call appending y2^2 under x2^2 to four
    monomials that share the low part y1 and differ above pair 2: the
    closed form's factor f_s(q_2) is built once per distinct s (2, then 1)
    and L z_1 once per distinct low part (y1, then y1^2*x1 from the first
    pass's z-term), in tables that die with the call: a second call builds
    them again, and a product leaves the engine's attributes as they were."""
    engine = params3.engine
    acc = {(1, 0, 0, 2, a, b): {0: 1} for a, b in [(0, 0), (1, 0), (0, 1), (2, 3)]}
    polys, lows = [], []
    in_q, times_z = StraighteningEngine._in_q, StraighteningEngine._times_z
    monkeypatch.setattr(StraighteningEngine, "_in_q",
                        lambda self, i, poly: polys.append(tuple(poly)) or in_q(self, i, poly))
    monkeypatch.setattr(StraighteningEngine, "_times_z",
                        lambda self, low: lows.append(low) or times_z(self, low))
    got = engine._acc_times_block(acc, 2, 2)
    assert polys == [tuple(engine._closed(2)), tuple(engine._closed(1))]
    assert lows == [(1, 0), (2, 1)]
    assert engine._acc_times_block(acc, 2, 2) == got
    assert len(polys) == len(lows) == 4
    monkeypatch.undo()
    a = sum((WeylElement.monomial(params3, m) for m in acc), WeylElement.zero(params3))
    y2 = WeylElement.generator(params3, "y", 2) ** 2
    before = dict(vars(engine))
    assert a * y2 == sum((WeylElement.monomial(params3, m) * y2 for m in acc),
                         WeylElement.zero(params3))
    assert vars(engine) == before


def test_results_equal_their_validated_rebuild():
    """Products (by a scalar too), commutators, brackets, gamma1 and z images
    assemble their terms straight in canonical form, past the validating
    constructor; rebuilding each result and its coefficients through the
    constructors gives the same terms in the same order, every coefficient
    an int or a non-integral Fraction.  Seeded, n <= 3, for all four element
    classes, and z_0 .. z_n for n <= 4, r <= 3 in the three classes that
    have them."""
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]

    def check(*results):
        for x in results:
            same = type(x)(x.params, [(m, type(c)(c.rank, c.terms)) for m, c in x.terms])
            assert same.terms == x.terms
            assert all(type(k) is int or k.denominator > 1 for _, c in x.terms for _, k in c.terms)

    def poisson(rng, p):
        return PoissonElement(p, [(m, MuPoly(p.r, [(tuple(rng.randint(0, 1) for _ in range(p.r)),
                                                     rng.choice(coeffs))]))
                                  for m, _ in random_weyl(rng, p, 3, 4).terms])

    for k in range(24):
        rng = random.Random(k)
        p = random_params(rng, rng.randint(1, 3), rng.randint(1, 3))
        for cls in (WeylElement, MaltsiniotisElement):
            a, b = (cls(p, random_weyl(rng, p, 3, 4).terms) for _ in range(2))
            s = cls.scalar(p, random_weyl(rng, p, 0, 2).terms[0][1])
            check(a * b, wa_commutator(a, b), (a + b) ** 2, s * a, b * s, s * s)
        a, b, s = (WeylElement(p, x.terms) for x in (a, b, s))
        check(gamma1(a), gamma1((a - b) * (b - s)), gamma1(wa_commutator(a, b)))
        a, b = poisson(rng, p), poisson(rng, p)
        check(pb_bracket(a, b), a * b)
        a, b = (PlaneElement(PLANE, [((rng.randint(0, 3), rng.randint(0, 3)),
                                      QTScalar.monomial((rng.randint(-2, 2),), rng.choice(coeffs)))
                                     for _ in range(4)]) for _ in range(2))
        check(a * b, wa_commutator(a, b))
    for n, r in product(range(1, 5), range(1, 4)):
        p = random_params(random.Random(4 * n + r), n, r)
        check(*(cls.z(p, i) for cls in (WeylElement, MaltsiniotisElement, PoissonElement)
                for i in range(n + 1)))


def test_scalar_operands_scale_as_the_engine_straightens(params2, monkeypatch):
    """A product with a scalar operand, one term on the constant monomial,
    on either side, reaches no engine and equals what the class's engine
    returns for the same pair, terms, order and coefficient types included.
    For the three classes with an engine: a rational, eta-monomials with
    and without a rational (eta^[1,-1], 3/2*eta^[0,1]), a multi-term scalar
    (eta^[1,0] - 1), scalar times scalar, and zero."""
    mul_terms, calls = StraighteningEngine.mul_terms, []
    monkeypatch.setattr(StraighteningEngine, "mul_terms",
                        lambda self, ta, tb: calls.append(1) or mul_terms(self, ta, tb))

    def typed(terms):
        return [(m, [(v, type(k), k) for v, k in c.terms]) for m, c in terms]

    pairs = [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (2, 1, 0, 0)]
    for cls, p, monos in ((WeylElement, params2, pairs), (MaltsiniotisElement, params2, pairs),
                          (PlaneElement, PLANE, [(0, 0), (1, 0), (0, 2), (2, 1)])):
        eta = QTScalar.monomial((1,) + (0,) * (p.r - 1))
        two_terms = QTScalar(p.r, [((1,) * p.r, 3), ((0,) * p.r, 1)])
        coeffs = [Fraction(2, 3), eta * Fraction(-3, 2), two_terms, 1]
        element = cls(p, list(zip(monos, coeffs)))
        shifts = [QTScalar.monomial(((1, -1) * p.r)[:p.r]),
                  QTScalar.monomial(((0, 1) * p.r)[-p.r:], Fraction(3, 2))]
        scalars = [cls.scalar(p, c) for c in (Fraction(3, 4), eta * Fraction(3, 2), eta - 1,
                                              *shifts)]
        for s in scalars:
            for a, b in [(s, element), (element, s), (s, cls.zero(p)), (cls.zero(p), s)] + [
                    (s, t) for t in scalars]:
                calls.clear()
                got = a * b
                assert not calls
                want = a._order(mul_terms(a._engine(p), a.terms, b.terms).items())
                assert typed(got.terms) == typed(want), (cls, a, b)


def test_memos_stay_within_their_limit(params3, monkeypatch):
    """Under a small ``MEMO_LIMIT`` the decoder's memo, the engine layer's
    only one, fills to it and never past it, and products keep the values
    they have with no limit.  Decoders are shared by every engine of one
    rank and width, so the table is emptied first and the new instance
    starts from an empty decoder."""
    def products(params):
        g = gens(params)
        s = sum(g.values(), WeylElement.zero(params))
        # x_i^t * y_i takes the closed form with the factor f_t(q_i): 24 keys
        return [(s ** 3 * s ** 2).terms] + [(g[f"x{i}"] ** t * g[f"y{i}"]).terms
                                            for i in range(1, params.n + 1) for t in range(1, 9)]

    want = products(params3)
    seen, missing = [], _Decoder.__missing__

    def dec_sized(self, packed):
        out = missing(self, packed)
        seen.append(len(self))
        return out

    monkeypatch.setattr(StraighteningEngine, "MEMO_LIMIT", 16)
    monkeypatch.setattr(_Decoder, "__missing__", dec_sized)
    weyl._decoder.cache_clear()
    fresh = WeylParams(params3.n, params3.r, params3.qexp, params3.lexp)
    assert products(fresh) == want
    # filled to the limit, cleared, and filled again
    assert max(seen) == 16 and min(seen[seen.index(16):]) == 1


def test_shared_decoders_never_change_a_result():
    """A decoded exponent depends on the rank and the width alone: products
    on one instance read the same after products on instances of its rank
    and of others, a product whose exponents reach 2^11 (its engine widens
    after a closed-form step), a division at a width of its own, and after
    the decoder table is emptied, on the instance and on a new equal one."""
    rng = random.Random(31)
    a = random_params(rng, 3, 2)

    def products(params):
        g = gens(params)
        s = sum(g.values(), WeylElement.zero(params))
        return (s ** 3 * s ** 2).terms, (g["x2"] ** 3 * g["y2"] * g["x1"] ** 2 * g["y1"]).terms

    want = products(a)
    for params in (random_params(rng, 3, 2), random_params(rng, 2, 3), random_params(rng, 3, 1)):
        products(params)
    wide = random_params(rng, 2, 2)
    c, q1 = QTScalar.monomial((2**11, -5)), wide.q_scalar(1)
    x1, y1 = (WeylElement.generator(wide, k, 1) for k in "xy")
    assert x1 * y1 == (y1 * x1).scale(q1) + WeylElement.scalar(wide, q1 - 1)
    assert x1.scale(c) * y1 == (y1 * x1).scale(c * q1) + WeylElement.scalar(wide, c * (q1 - 1))
    assert wide.engine._decoded.bits > StraighteningEngine.MIN_BITS
    # a division in 16-bit fields, a width other than the 24 bits of the engine
    y2 = WeylElement.generator(wide, "y", 2).scale(QTScalar.monomial((3000, -7000)))
    assert from_maltsiniotis(rescaled(y2 * y1)) == y2 * y1
    for _ in range(2):  # warm decoders, then an emptied table
        assert products(a) == want
        assert products(WeylParams(a.n, a.r, a.qexp, a.lexp)) == want
        weyl._decoder.cache_clear()


def test_shared_decoders_stay_bounded_and_pin_no_instance(monkeypatch):
    """Under a small ``MEMO_LIMIT``, products on 50 new instances of mixed
    rank and width leave at most 8 decoders in the table, every decoder
    within the limit, and no instance alive: a decoder holds only its rank,
    its width and its memo."""
    monkeypatch.setattr(StraighteningEngine, "MEMO_LIMIT", 16)
    weyl._decoder.cache_clear()
    rng, refs, decoders = random.Random(41), [], []
    for k in range(50):
        params = random_params(rng, 1 + k % 3, 1 + k % 4)
        # exponents up to 2^60: fields of 12 to about 64 bits
        c = QTScalar.monomial((2 ** (15 * (k % 5)),) + (0,) * (params.r - 1))
        s = sum(gens(params).values(), WeylElement.zero(params)).scale(c)
        assert (s ** 2 * s).terms
        decoders.append(params.engine._decoded)
        refs.append(weakref.ref(params))
    del params, s
    gc.collect()
    info = weyl._decoder.cache_info()
    assert len({(d.rank, d.bits) for d in decoders}) > info.maxsize == 8 >= info.currsize
    assert max(len(d) for d in decoders) <= 16
    assert [ref for ref in refs if ref() is not None] == []


def test_engines_hold_no_state_that_grows_with_products():
    """After 200 random products on one instance, in both presentations,
    every attribute of both engines, and so the size of every container it
    holds, is what it was before; the decoder, bounded on its own, is left
    out."""
    rng = random.Random(35)
    params = random_params(rng, 3, 2)
    engines = (params.engine, params.rescaled_engine)

    def state():
        return [{k: copy.deepcopy(v) for k, v in vars(e).items()
                 if k not in ("_decoded", "_encode")} for e in engines]

    before = state()
    for _ in range(200):
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        assert from_maltsiniotis(rescaled(a) * rescaled(b)) == a * b
    assert state() == before


def test_powers_widen_a_logarithmic_number_of_times(monkeypatch):
    """``x1 ** 10**100`` squares 332 times and each squaring raises the
    width bound by about 2 bits, but each widening at least doubles the
    fields: from 12 bits to the final width in at most 8 ``_set_width``
    calls, the first at construction."""
    widths, set_width = [], StraighteningEngine._set_width

    def counted(self, bits):
        widths.append(bits)
        return set_width(self, bits)

    monkeypatch.setattr(StraighteningEngine, "_set_width", counted)
    p = params_from_config(DEFAULT_CONFIG)
    x1 = WeylElement.generator(p, "x", 1)
    assert x1 ** 10**100 == WeylElement.monomial(p, (0, 10**100, 0, 0))
    assert widths[0] == StraighteningEngine.MIN_BITS and len(widths) <= 8
    assert all(b >= 2 * a for a, b in zip(widths, widths[1:]))


def test_powers_take_no_product_by_one(params2, monkeypatch):
    """``s ** k`` squares and multiplies from the first factor: k = 0, 1,
    2, 3 and 5 take 0, 0, 1, 2 and 3 folds, ``s ** 3`` folds s^2 * s, and
    every power equals the product of its factors."""
    s = sum(gens(params2).values(), WeylElement.zero(params2))
    s2 = s * s
    want = [WeylElement.one(params2), s, s2, s2 * s, s2 * s2 * s]
    folds, fold = [], StraighteningEngine._fold

    def counted(self, pa, pb):
        folds.append((len(pa), len(pb)))
        return fold(self, pa, pb)

    monkeypatch.setattr(StraighteningEngine, "_fold", counted)
    counts = []
    for k, power in zip((0, 1, 2, 3, 5), want):
        folds.clear()
        assert s ** k == power
        counts.append(len(folds))
        if k == 3:
            assert folds == [(len(s.terms), len(s.terms)), (len(s2.terms), len(s.terms))]
    assert counts == [0, 0, 1, 2, 3]


def test_generator_is_its_monomial(params2):
    """``generator`` builds y_i and x_i without the checking constructor:
    the same class, terms and coefficient class as ``monomial`` for every
    element class."""
    for cls, params in ((WeylElement, params2), (MaltsiniotisElement, params2),
                        (PoissonElement, params2), (PlaneElement, PLANE)):
        for i in range(1, params.n + 1):
            for slot, kind in ((2 * i - 2, "y"), (2 * i - 1, "x")):
                m = tuple(int(k == slot) for k in range(2 * params.n))
                g, want = cls.generator(params, kind, i), cls.monomial(params, m)
                assert type(g) is cls and g.params is params and g.terms == want.terms
                assert [type(c) for _, c in g.terms] == [cls.scalar_type]
                assert g.terms[0][1].rank == params.r


def test_block_append_equals_single_appends(params3):
    """``_acc_times_block(acc, p, e)`` against e calls of
    ``_acc_times_block(acc, p, 1)``.  Each accumulator mixes monomials with
    nothing above p and monomials that take a block swap; on a y_i slot,
    L*y_i*x_i steps to a term L*y_i^e, where L lands too, and in the last
    case the two cancel."""
    engine, rng = params3.engine, random.Random(5)
    enc = engine._encode

    def packed():
        return {enc((rng.randint(-2, 2), rng.randint(-2, 2))): rng.choice((1, -1, 2, -3))
                for _ in range(rng.randint(1, 2))}

    cases = []
    for p in range(6):
        for e in (1, 2, 3):
            acc = {tuple(rng.randint(0, 1) for _ in range(6)): packed() for _ in range(5)}
            if p % 2 == 0:
                low = tuple(rng.randint(0, 1) for _ in range(p)) + (0,) * (6 - p)
                acc[low] = packed()
                acc[low[:p] + (1, 1) + low[p + 2:]] = packed()
            cases.append((acc, p, e))
    cases.append(({(0,) * 6: {0: 1, enc((1, 0)): -1}, (1, 1, 0, 0, 0, 0): {0: 1}}, 0, 1))
    met = 0
    for acc, p, e in cases:
        stepped = {m: dict(d) for m, d in acc.items()}
        for _ in range(e):
            stepped = engine._acc_times_block(stepped, p, 1)
        block = engine._acc_times_block({m: dict(d) for m, d in acc.items()}, p, e)
        assert {m: d for m, d in block.items() if d} == {m: d for m, d in stepped.items() if d}
        landed = {m[:p] + (m[p] + e,) + m[p + 1:] for m in acc if not any(m[p + 1:])}
        met += bool(landed & {mm for m in acc if any(m[p + 1:])
                              for mm in engine._acc_times_block({m: {0: 1}}, p, e)})
    assert met == 10  # the nine y-slot cases and the cancelling one
