import random
from itertools import product

import pytest

from qweyl import (
    AdmissibleSet,
    MuPoly,
    WeylElement,
    brute_force_admissible,
    center_lattice,
    check_torus_relations,
    clear_denominators,
    enumerate_admissible,
    in_stratum_ideal,
    integer_kernel,
    is_admissible,
    poisson_center_lattice,
    reduce_mod_stratum,
    stratum_report,
    torus_data,
    torus_matrix_p,
    torus_matrix_q,
    wa_z,
    y_set,
)
from qweyl.spectra import lattice_contains, row_hermite_normal_form
from qweyl.suites import random_params


def T_of(n, *names):
    return AdmissibleSet.from_markers(
        n, [(s[0], int(s[1:])) for s in names]
    )


# -- admissibility ------------------------------------------------------------


def test_is_admissible_examples():
    assert is_admissible(T_of(2))
    # {z2}: both sides of the biconditional are false, so it holds
    assert is_admissible(T_of(2, "z2"))
    # {z2, y2} fails: z1 is missing
    assert not is_admissible(T_of(2, "z2", "y2"))
    assert not is_admissible(T_of(2, "z1", "z2"))
    assert is_admissible(T_of(2, "z1", "z2", "x2"))


def test_enumerate_matches_brute_force():
    for n, count in ((1, 2), (2, 6), (3, 20)):
        fast = enumerate_admissible(n)
        slow = brute_force_admissible(n)
        assert len(fast) == len(slow) == count
        assert set(fast) == set(slow)
        assert all(T.is_admissible() for T in fast)
    assert len(enumerate_admissible(4)) == 68


def test_enumerate_n1_explicit():
    got = {T.names() for T in enumerate_admissible(1)}
    assert got == {(), ("z1",)}


def test_marker_validation():
    with pytest.raises(ValueError):
        T_of(2, "y1")  # y1 is not a marker
    with pytest.raises(ValueError):
        T_of(2, "z3")


# -- stratum generators ----------------------------------------------------------


def test_y_set_examples():
    assert y_set(T_of(1)) == (("z", 1), ("y", 1))
    assert y_set(T_of(1, "z1")) == (("y", 1),)
    assert y_set(T_of(2, "z1", "z2", "y2")) == (("y", 1), ("x", 2))
    with pytest.raises(ValueError):
        y_set(T_of(2, "z2", "y2"))


def test_y_set_never_pairs_y_with_x():
    for n in (1, 2, 3):
        for T in enumerate_admissible(n):
            gens = y_set(T)
            ys = {i for k, i in gens if k == "y"}
            xs = {i for k, i in gens if k == "x"}
            assert not ys & xs


# -- torus matrices ----------------------------------------------------------------


def test_qmatrix_n1_empty(params2):
    p1 = random_params(random.Random(0), 1, 2)
    qm = torus_matrix_q(p1, T_of(1))
    # generators [z1, y1]: z1 y1 = q1 y1 z1
    assert qm[0][1] == p1.s(1)
    assert qm[0][0] == (0, 0) and qm[1][1] == (0, 0)
    assert qm[1][0] == tuple(-e for e in p1.s(1))


def test_pmatrix_n1_empty():
    p1 = random_params(random.Random(1), 1, 2)
    pm = torus_matrix_p(p1, T_of(1))
    assert pm[0][1] == MuPoly.linear(p1.s(1))
    assert pm[0][0] == MuPoly.zero(2)


def test_qmatrix_row_against_z_y_block(params3):
    # a y_k generator against the trailing [z_n, y_n] block carries
    # exponents (-s_k, L_kn)
    T = T_of(3, "z2")  # y_set: z1, y1, y2, z3, y3
    gens = y_set(T)
    assert gens == (("z", 1), ("y", 1), ("y", 2), ("z", 3), ("y", 3))
    qm = torus_matrix_q(params3, T)
    k_row = gens.index(("y", 2))
    z_col, y_col = gens.index(("z", 3)), gens.index(("y", 3))
    assert qm[k_row][z_col] == tuple(-e for e in params3.s(2))
    assert qm[k_row][y_col] == params3.L(2, 3)


def test_torus_data_invariants(params3):
    for n, params in ((2, random_params(random.Random(5), 2, 2)), (3, params3)):
        for T in enumerate_admissible(n):
            data = torus_data(params, T)
            s = data.size
            for i in range(s):
                for j in range(s):
                    assert data.pmatrix[i][j] == MuPoly.linear(data.qmatrix[i][j])


# -- integer linear algebra ----------------------------------------------------------


def test_hnf_basics():
    H, U = row_hermite_normal_form([[4, 6], [2, 4]], 2)
    # U unimodular: determinant +-1
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    assert det in (1, -1)
    assert H[0][0] > 0
    # U * A = H
    A = [[4, 6], [2, 4]]
    for i in range(2):
        for j in range(2):
            assert sum(U[i][k] * A[k][j] for k in range(2)) == H[i][j]


def test_integer_kernel_examples():
    assert integer_kernel([[1, 1]], 2) == [(1, -1)]
    assert integer_kernel([[1, 0], [0, 1]], 2) == []
    assert integer_kernel([[0, 0]], 2) == [(1, 0), (0, 1)]


def test_kernel_brute_force_randomized():
    rng = random.Random(12)
    for _ in range(30):
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        basis = integer_kernel(rows, 3)
        for u in product(range(-3, 4), repeat=3):
            in_kernel = all(
                sum(r[j] * u[j] for j in range(3)) == 0 for r in rows
            )
            assert in_kernel == lattice_contains(basis, u)


def test_center_lattice_examples():
    qm0 = (
        ((0, 0), (0, 0)),
        ((0, 0), (0, 0)),
    )
    lat = center_lattice(qm0, 2)
    assert lat.basis == ((1, 0), (0, 1))
    qm1 = (
        ((0, 0), (1, 0)),
        ((-1, 0), (0, 0)),
    )
    assert center_lattice(qm1, 2).is_trivial
    qm2 = (
        ((0, 0), (1, 0), (1, 0)),
        ((-1, 0), (0, 0), (0, 0)),
        ((-1, 0), (0, 0), (0, 0)),
    )
    lat2 = center_lattice(qm2, 2)
    assert lat2.contains((0, 1, -1))


def test_center_lattice_quantum_equals_poisson(params3):
    for T in enumerate_admissible(3):
        qm = torus_matrix_q(params3, T)
        pm = torus_matrix_p(params3, T)
        assert center_lattice(qm, 2).basis == poisson_center_lattice(pm, 2).basis


def test_poisson_center_lattice_rejects_constant_entry():
    zero, one = MuPoly.zero(1), MuPoly.constant(1, 1)
    with pytest.raises(ValueError, match="is not a homogeneous linear mu-form"):
        poisson_center_lattice(((zero, one), (-one, zero)), 1)


# -- denominator clearing --------------------------------------------------------------


def test_clear_denominators_examples():
    v, shifted = clear_denominators({(-1, 0): 1, (0, 1): 1, (0, 0): 1})
    assert v == (1, 0)
    assert shifted == {(0, 0): 1, (1, 1): 1, (1, 0): 1}
    v, shifted = clear_denominators({(1, 2): 5})
    assert v == (0, 0) and shifted == {(1, 2): 5}
    v, shifted = clear_denominators({(-2, -1): 1, (1, 0): -1})
    assert v == (2, 1) and shifted == {(0, 0): 1, (3, 1): -1}
    assert clear_denominators({}) == ((), {})


# -- stratum reports ---------------------------------------------------------------------


def test_stratum_report_n1():
    p1 = random_params(random.Random(2), 1, 2)
    rep0 = stratum_report(p1, T_of(1))
    assert rep0.generators == ("z1", "y1")
    assert rep0.center_trivial
    rep1 = stratum_report(p1, T_of(1, "z1"))
    assert rep1.generators == ("y1",)
    assert rep1.center_basis == ((1,),)
    assert rep1.center_rank == 1
    d = rep1.to_dict()
    assert d["markers"] == ["z1"] and d["center_rank"] == 1


# -- ideal membership ----------------------------------------------------------------------


def test_reduction_sends_markers_to_zero(params3):
    for T in enumerate_admissible(3):
        for i in sorted(T.zs):
            assert in_stratum_ideal(params3, T, wa_z(params3, i))
        for i in sorted(T.ys):
            assert in_stratum_ideal(
                params3, T, WeylElement.generator(params3, "y", i)
            )
        for i in sorted(T.xs):
            assert in_stratum_ideal(
                params3, T, WeylElement.generator(params3, "x", i)
            )


def test_reduction_keeps_nonmembers(params3):
    T = T_of(3, "z1")
    assert not in_stratum_ideal(params3, T, WeylElement.one(params3))
    assert not in_stratum_ideal(
        params3, T, WeylElement.generator(params3, "y", 2)
    )
    # right-multiples of members reduce to zero
    z1 = wa_z(params3, 1)
    a = WeylElement.generator(params3, "x", 3) * WeylElement.generator(params3, "y", 2)
    assert in_stratum_ideal(params3, T, z1 * a)


def test_reduction_idempotent_on_normal_forms(params3):
    T = T_of(3, "z1")
    a = WeylElement.generator(params3, "y", 2) + WeylElement.one(params3)
    nf = reduce_mod_stratum(params3, T, a)
    assert reduce_mod_stratum(params3, T, nf) == nf


def test_torus_relations_all_strata(params3):
    for T in enumerate_admissible(3):
        assert check_torus_relations(params3, T)
