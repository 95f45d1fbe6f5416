import operator
import random
from fractions import Fraction

import pytest

from qweyl import (
    LocalizationRequiredError,
    MaltsiniotisElement,
    MuPoly,
    ParamsMismatchError,
    PoissonElement,
    QTScalar,
    RankMismatchError,
    WeylElement,
    WeylParams,
    from_maltsiniotis,
    gamma1,
    wa_commutator,
    wa_z,
)
from qweyl.cli import DEFAULT_CONFIG, params_from_config
from qweyl.quantum_plane import PLANE, PlaneElement
from qweyl import weyl
from qweyl.suites import ALL_SUITES, DEFAULT_SEED, random_params, random_weyl
from qweyl.weyl import StraighteningEngine


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
    engine: x1 Y1 - Y1 x1 = 1 + (q1 - 1) Y1 x1 and x y - y x = (t - 1) y x."""
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


def test_element_classes_do_not_mix(params2):
    """y1 and the rescaled Y1 = (q1 - 1)^{-1} y1 are different elements, and
    a Weyl element of the plane's shape is not a plane element: across
    classes, sums, products and commutators raise and nothing compares
    equal."""
    pairs = [
        (WeylElement.generator(params2, "y", 1), MaltsiniotisElement.generator(params2, "y", 1)),
        (WeylElement.generator(PLANE, "y", 1), PlaneElement.y()),
    ]
    for a, b in pairs + [(b, a) for a, b in pairs]:
        assert a.terms == b.terms and not a == b
        for op in (operator.add, operator.sub, operator.mul, wa_commutator):
            with pytest.raises(TypeError):
                op(a, b)


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
        ab, ba = engine.q_commutators(dict(a.terms), dict(b.terms), c, c_rev)
        want_ab = a * b - (b * a).scale(QTScalar.monomial(c))
        want_ba = b * a - (a * b).scale(QTScalar.monomial(c_rev))
        assert want_ab and want_ba
        assert WeylElement._from_sums(params, ab) == want_ab
        assert WeylElement._from_sums(params, ba) == want_ba
        (same,) = engine.q_commutators(dict(a.terms), dict(a.terms), c)
        assert WeylElement._from_sums(params, same) == (a * a).scale(1 - QTScalar.monomial(c))
        a = rng.choice(g) * rng.choice(g) + QTScalar.monomial((big,) * r, Fraction(1, 2))
        b = rng.choice(g).scale(QTScalar.monomial(tuple(range(r)), 3)) - rng.choice(g)
    assert engine._half > 2 * big


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
    build = weyl.build_engine

    def build_corrupted(*args):
        if len(args) == 7:  # the rescaled engine; the plain one takes the defaults
            args = args[:slot] + (corrupted,) + args[slot + 1:]
        return build(*args)

    assert ALL_SUITES["rescaling-relations"](DEFAULT_SEED).passed
    monkeypatch.setattr(weyl, "build_engine", build_corrupted)
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


def test_direct_landings_are_not_memoized(monkeypatch):
    """A block g_p^e appended to a monomial with nothing above slot p lands
    in one step, whatever e is, so large powers of one generator, and x1^3
    times one, take no single append and leave the generator memo empty."""
    p = params_from_config(DEFAULT_CONFIG)
    g = gens(p)
    steps = []
    original = StraighteningEngine._acc_times_gen

    def counted(self, acc, q):
        steps.append(q)
        return original(self, acc, q)

    monkeypatch.setattr(StraighteningEngine, "_acc_times_gen", counted)
    assert g["y1"] ** 10**6 == WeylElement.monomial(p, (10**6, 0, 0, 0))
    assert g["x1"] ** 3 * g["y2"] ** 10**6 == WeylElement.monomial(p, (0, 3, 10**6, 0))
    assert (steps, len(p.engine._gen_cache)) == ([], 0)
    assert g["x1"] ** 10**11 == WeylElement.monomial(p, (0, 10**11, 0, 0))


def test_generator_append_takes_one_call(params3, monkeypatch):
    """Appending y2 under the blocks of pair 3 and onto x2 (the closed form)
    is one ``_mono_times_gen`` call, one ``_times_z`` call and one memo
    entry, with no nested call however many blocks it passes; a second
    append is a memo hit."""
    engine = params3.engine
    engine._gen_cache.clear()
    m = (1, 2, 1, 3, 2, 1)
    calls = []
    for name in ("_mono_times_gen", "_times_z"):
        original = getattr(StraighteningEngine, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(StraighteningEngine, name, counted)
    first = engine._mono_times_gen(m, 2)
    assert engine._mono_times_gen(m, 2) is first
    assert calls == ["_mono_times_gen", "_times_z", "_mono_times_gen"]
    assert list(engine._gen_cache) == [(m, 2)]


def test_block_append_equals_single_appends(params3):
    """``_acc_times_block(acc, p, e)`` against e calls of ``_acc_times_gen``.
    Each accumulator mixes monomials that land and monomials that step; on a
    y_i slot, L*y_i*x_i steps to a term L*y_i^e, where L lands too, and in
    the last case the two cancel."""
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
            stepped = engine._acc_times_gen(stepped, p)
        block = engine._acc_times_block({m: dict(d) for m, d in acc.items()}, p, e)
        assert {m: d for m, d in block.items() if d} == {m: d for m, d in stepped.items() if d}
        landed = {m[:p] + (m[p] + e,) + m[p + 1:] for m in acc if not any(m[p + 1:])}
        met += bool(landed & {mm for m in acc if any(m[p + 1:])
                              for mm in engine._acc_times_block({m: {0: 1}}, p, e)})
    assert met == 10  # the nine y-slot cases and the cancelling one
