import random
from fractions import Fraction

import pytest

from qweyl import (
    LocalizationRequiredError,
    ParamsMismatchError,
    QTScalar,
    WeylElement,
    WeylParams,
    from_maltsiniotis,
    wa_commutator,
    wa_divisible_by_t_minus_1,
    wa_z,
)
from qweyl.suites import random_params, random_weyl


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
    assert wa_divisible_by_t_minus_1(g["y1"].scale(q1 - 1))
    assert not wa_divisible_by_t_minus_1(g["y1"])
    rng = random.Random(9)
    for _ in range(50):
        a, b = random_weyl(rng, params2), random_weyl(rng, params2)
        assert wa_divisible_by_t_minus_1(wa_commutator(a, b))


# -- the rescaling map ----------------------------------------------------------------


def test_rescaling_generators(params2):
    one = QTScalar.one(2)
    assert from_maltsiniotis(params2, [(one, (("x", 1),))]) == WeylElement.generator(
        params2, "x", 1
    )
    q1 = params2.q_scalar(1)
    assert from_maltsiniotis(params2, [(q1 - 1, (("y", 1),))]) == WeylElement.generator(
        params2, "y", 1
    )


def test_rescaling_needs_localization(params2):
    with pytest.raises(LocalizationRequiredError):
        from_maltsiniotis(params2, [(QTScalar.one(2), (("y", 1),))])


def test_rescaling_kills_defining_relation(params2):
    # x2 y2 - q2 y2 x2 - 1 - (q1 - 1) y1 x1  maps to zero
    one = QTScalar.one(2)
    q1, q2 = params2.q_scalar(1), params2.q_scalar(2)
    rel = [
        (one, (("x", 2), ("y", 2))),
        (-q2, (("y", 2), ("x", 2))),
        (-one, ()),
        (-(q1 - 1), (("y", 1), ("x", 1))),
    ]
    assert from_maltsiniotis(params2, rel) == WeylElement.zero(params2)


# -- printing ---------------------------------------------------------------------------


def test_element_str(params2):
    g = gens(params2)
    q1 = params2.q_scalar(1)
    assert str(WeylElement.zero(params2)) == "0"
    assert str(g["y1"] * g["x2"]) == "y1*x2"
    assert str(g["x1"] * g["y1"]) == "(-1 + eta^[1,0]) + eta^[1,0]*y1*x1"
    assert str(-g["y1"]) == "-y1"
    assert str(g["y1"].scale(q1)) == "eta^[1,0]*y1"
