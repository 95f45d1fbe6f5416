import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from qweyl import (
    AdmissibleSet,
    LocalizationRequiredError,
    MuPoly,
    ParamsMismatchError,
    PoissonElement,
    QTScalar,
    WeylElement,
    WeylParams,
    brute_force_admissible,
    center_lattice,
    check_torus_relations,
    count_admissible,
    enumerate_admissible,
    eval_rescaled,
    from_maltsiniotis,
    in_stratum_ideal,
    integer_kernel,
    is_admissible,
    parse_expr,
    poisson_center_lattice,
    reduce_mod_stratum,
    stratum_report,
    torus_matrix_p,
    torus_matrix_q,
    wa_z,
    y_set,
)
from qweyl import spectra
from qweyl.spectra import CenterLattice, lattice_contains, row_hermite_normal_form
from qweyl.suites import SuiteResult, random_params, run_suite
from qweyl.weyl import PbwElement, StraighteningEngine


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


def test_enumerated_sets_equal_their_validated_build():
    """``enumerate_admissible`` builds its sets past the constructor's checks;
    for n <= 5 each equals the set the validating constructor builds from the
    same markers, and brute force's, in ==, hash, names() and str."""
    kinds = {"z": 0, "y": 1, "x": 2}
    for n in range(1, 6):
        slow = {T: T for T in brute_force_admissible(n)}
        fast = enumerate_admissible(n)
        assert len(fast) == len(slow)
        for T in fast:
            built = AdmissibleSet(n, set(T.zs), set(T.ys), set(T.xs))
            for other in (built, slow[T]):
                assert T == other and hash(T) == hash(other)
                assert T.names() == other.names() and str(T) == str(other)
            assert T.markers() == tuple(sorted(T.markers(), key=lambda m: (m[1], kinds[m[0]])))
            assert {type(i) for i in (*T.zs, *T.ys, *T.xs)} <= {int}
            assert all(type(f) is frozenset for f in (T.zs, T.ys, T.xs))
    assert str(AdmissibleSet(3, {1, 2, 3}, {2, 3}, {3})) == "{z1,z2,y2,z3,y3,x3}"
    for bad in ((2, {3}, (), ()), (2, {0}, (), ()), (2, {1, 2}, {1}, ()), (2, {1, 2}, (), {3}),
                (3, {1}, (), {2.0}), (0, (), (), ()), (2.0, (), (), ())):
        with pytest.raises(ValueError):
            AdmissibleSet(*bad)


def test_count_recurrence_matches_enumeration():
    for n in range(1, 7):
        assert count_admissible(n) == len(enumerate_admissible(n))
    assert count_admissible(12) == 1254464
    with pytest.raises(ValueError):
        count_admissible(0)


@pytest.mark.parametrize("call", [enumerate_admissible, count_admissible,
                                  brute_force_admissible])
@pytest.mark.parametrize("n", [True, 2.0, "2"])
def test_enumerations_reject_a_size_that_is_not_an_int(call, n):
    with pytest.raises(ValueError, match=f"^n = {n!r} must be an integer$"):
        call(n)


def test_enumerate_n1_explicit():
    got = {T.names() for T in enumerate_admissible(1)}
    assert got == {(), ("z1",)}


def test_marker_validation():
    with pytest.raises(ValueError):
        T_of(2, "y1")  # y1 is not a marker
    with pytest.raises(ValueError):
        T_of(2, "z3")


def test_from_markers_rejects_unknown_kind_and_non_int_index():
    with pytest.raises(ValueError, match="^unknown marker kind 'w'; expected z, y or x$"):
        AdmissibleSet.from_markers(2, [("w", 1)])
    with pytest.raises(ValueError, match="^marker index '1' must be an integer$"):
        AdmissibleSet.from_markers(2, [("z", "1")])
    with pytest.raises(ValueError, match="must be an integer"):
        AdmissibleSet.from_markers(2, [("z", True)])


def test_admissible_set_rejects_indices_and_sizes_that_are_not_ints():
    """Floats, bools and strings are refused as marker indices and as n,
    by the constructor itself, so no set prints as {z1.0} or {zTrue}."""
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match=f"^marker index {bad!r} must be an integer$"):
            AdmissibleSet(2, {bad}, (), ())
        with pytest.raises(ValueError, match=f"^marker index {bad!r} must be an integer$"):
            AdmissibleSet(2, {1, 2}, (), {bad})
        with pytest.raises(ValueError, match=f"^n = {bad!r} must be an integer$"):
            AdmissibleSet(bad, (), (), ())
    assert str(AdmissibleSet(2, {1, 2}, {2}, ())) == "{z1,z2,y2}"


def test_admissible_set_rejects_a_size_below_one():
    """A set of M_0 or M_-1 is refused with the enumerations' own message:
    sets and enumerations share one size check."""
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be positive$"):
            AdmissibleSet(n, (), (), ())
        with pytest.raises(ValueError, match="^n must be positive$"):
            AdmissibleSet.from_markers(n, [])
        with pytest.raises(ValueError, match="^n must be positive$"):
            enumerate_admissible(n)


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
            qm, pm = torus_matrix_q(params, T), torus_matrix_p(params, T)
            assert len(qm) == len(pm) == len(y_set(T))
            for i, j in product(range(len(qm)), repeat=2):
                assert pm[i][j] == MuPoly.linear(qm[i][j])
                assert qm[i][j] == tuple(-e for e in qm[j][i])


# -- integer linear algebra ----------------------------------------------------------


def test_hnf_basics():
    # reducing [A | I] records the row operations U with U * A = H in the right block
    A = [[4, 6], [2, 4]]
    reduced = row_hermite_normal_form([[4, 6, 1, 0], [2, 4, 0, 1]], 4)
    H, U = [row[:2] for row in reduced], [row[2:] for row in reduced]
    # U unimodular: determinant +-1
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    assert det in (1, -1)
    assert H[0][0] > 0
    # U * A = H
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


def test_lattice_membership_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 4.*Z\\^3"):
        CenterLattice(3, ((1, 0, 0),)).contains((1, 0, 0, 5))
    with pytest.raises(ValueError, match="length 1.*Z\\^3"):
        CenterLattice(3, ((0, 0, 2),)).contains((1,))
    with pytest.raises(ValueError, match="length 2.*Z\\^1"):
        CenterLattice(1, ()).contains((0, 0))
    with pytest.raises(ValueError, match="length 4, basis rows have length 3"):
        lattice_contains(((1, 0, 0),), (1, 0, 0, 5))
    with pytest.raises(ValueError, match="length 1, basis rows have length 3"):
        lattice_contains(((0, 0, 2),), (1,))


def test_lattice_functions_reject_non_integers():
    """A rational or float entry raises TypeError instead of being truncated:
    the kernel of [1/2, 1] is spanned by (2, -1), not by (1, 0).  A bool
    entry raises it too instead of being read as 0 or 1.  The kernel memo
    is never read or filled."""
    half = Fraction(1, 2)
    before = spectra._kernel_basis.cache_info()
    calls = [
        lambda: row_hermite_normal_form([[half, 1]], 2),
        lambda: row_hermite_normal_form([[1.0, 2]], 2),
        lambda: integer_kernel([[half, 1]], 2),
        lambda: integer_kernel([[1, 2.0]], 2),
        lambda: integer_kernel([[1, 2]], 2.0),
        lambda: integer_kernel([[5]], True),  # not ncols = 1: [5] has only u = 0
        lambda: row_hermite_normal_form([[5]], True),
        lambda: lattice_contains(((1, 0),), (half, 0)),
        lambda: CenterLattice(2, ((1, 0),)).contains((0.5, 0)),
        lambda: integer_kernel([[True, 2]], 2),
        lambda: integer_kernel([[1, 2], [3, False]], 2),
        lambda: row_hermite_normal_form([[True, False]], 2),
        lambda: lattice_contains(((1, 0),), (0, False)),
        lambda: CenterLattice(2, ((1, 0),)).contains((True, 0)),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    assert spectra._kernel_basis.cache_info() == before
    assert integer_kernel([[1, 2]], 2) == [(2, -1)]


def test_center_lattice_quantum_equals_poisson(params3):
    for T in enumerate_admissible(3):
        qm = torus_matrix_q(params3, T)
        pm = torus_matrix_p(params3, T)
        assert center_lattice(qm, 2).basis == poisson_center_lattice(pm, 2).basis


def test_poisson_center_lattice_rejects_constant_entry():
    zero, one = MuPoly.zero(1), MuPoly.constant(1, 1)
    with pytest.raises(ValueError, match="is not a homogeneous linear mu-form"):
        poisson_center_lattice(((zero, one), (-one, zero)), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: row_hermite_normal_form([[2, 4, 1], [1, 3]], 3), "length 2, not ncols = 3"),
    (lambda: integer_kernel([[1, 2, 3]], 2), "length 3, not ncols = 2"),
    (lambda: integer_kernel([[1]], 2), "length 1, not ncols = 2"),
    (lambda: integer_kernel([[1, 1]], -1), "ncols must be nonnegative"),
    (lambda: row_hermite_normal_form([], -1), "ncols must be nonnegative"),
])
def test_lattice_functions_reject_malformed_systems(call, message):
    """A row whose length is not ``ncols``, or a negative ``ncols``, raises
    a one-line ValueError, on every call, and never enters the kernel memo:
    no row is cut to ``ncols`` entries or read past its end."""
    size = spectra._kernel_basis.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=message) as info:
            call()
        assert "\n" not in str(info.value)
    assert spectra._kernel_basis.cache_info().currsize == size


@pytest.mark.parametrize("call, message", [
    (lambda: center_lattice([[(0, 1)]], 1), "length is not r = 1"),
    (lambda: center_lattice([[(0,)]], 2), "length is not r = 2"),
    (lambda: center_lattice([[(0,), (1,)], [(0,)]], 1), "qmatrix is not square"),
    (lambda: center_lattice([[(0,), (1,)]], 1), "qmatrix is not square"),
    (lambda: poisson_center_lattice([[MuPoly.linear((1,))]], 2), "rank is not r = 2"),
    (lambda: poisson_center_lattice([[MuPoly.zero(1)], []], 1), "pmatrix is not square"),
    (lambda: center_lattice([[(0, 0)]], 2.0), r"^r = 2\.0 must be an int$"),
    (lambda: center_lattice([[(0,)]], True), "^r = True must be an int$"),
    (lambda: center_lattice([[(0,)]], "1"), "^r = '1' must be an int$"),
    (lambda: poisson_center_lattice([[MuPoly.zero(1)]], 1.0), r"^r = 1\.0 must be an int$"),
])
def test_center_lattices_check_their_matrix(call, message):
    """The ``r`` passed beside a matrix must be an int and the length of
    every exponent vector (the rank of every form), and the matrix must be
    square, or ValueError: [[(0, 1)]] has only u = 0 in its kernel, not
    rank 1, and r = 2.0 or True is not a rank.  The error is one line, and
    the kernel memo is never read or filled."""
    before = spectra._kernel_basis.cache_info()
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert "\n" not in str(info.value)
    assert spectra._kernel_basis.cache_info() == before


@pytest.mark.parametrize("entry", [QTScalar.constant(1, 0), QTScalar.monomial((1,)), 0])
def test_poisson_center_lattice_takes_only_forms(entry):
    """A Poisson matrix entry that is not a MuPoly raises a one-line
    TypeError naming its type, before any row is read."""
    before = spectra._kernel_basis.cache_info()
    name = type(entry).__name__
    for pm in ([[entry]], [[MuPoly.zero(1), entry], [entry, MuPoly.zero(1)]]):
        with pytest.raises(TypeError, match=f"^pmatrix entries must be MuPoly forms, not {name}$"):
            poisson_center_lattice(pm, 1)
    assert spectra._kernel_basis.cache_info() == before


def test_poisson_center_lattice_scales_rational_rows():
    """Forms with denominators (none on a stratum, whose forms are
    integral) have each row scaled by the lcm of its denominators: the
    lattice is the integer kernel of the rows scaled by hand, and differs
    from the kernel of the numerators alone."""
    def mu(*coeffs):
        return MuPoly.linear(tuple(map(Fraction, coeffs)))

    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    zero1, zero2 = MuPoly.zero(1), MuPoly.zero(2)
    pm1 = [[zero1, mu(half), mu(-third)],
           [mu(-half), zero1, zero1],
           [mu(third), zero1, zero1]]
    rows1 = [[0, 3, -2], [-1, 0, 0], [1, 0, 0]]  # times 6, 2 and 3
    # the mu_1 coordinate has denominators 2, 3 and 6, the mu_2 one none
    pm2 = [[zero2, mu(half, 3), mu(third, 2)],
           [mu(-half, -3), zero2, mu(sixth, 1)],
           [mu(-third, -2), mu(-sixth, -1), zero2]]
    rows2 = [[0, 3, 2], [0, 3, 2], [-3, 0, 1], [-3, 0, 1], [-2, -1, 0], [-2, -1, 0]]
    for pm, r, rows, basis, numerators in [(pm1, 1, rows1, ((0, 2, 3),), ((0, 1, 1),)),
                                           (pm2, 2, rows2, ((1, -2, 3),), ())]:
        assert integer_kernel(rows, 3) == list(basis)
        assert poisson_center_lattice(pm, r) == CenterLattice(3, basis)
        tops = [[c.numerator for c in coeffs] for row in pm
                for coeffs in zip(*(f.linear_coefficients() for f in row))]
        assert tuple(integer_kernel(tops, 3)) == numerators != basis


def test_kernel_memo_solves_each_stratum_system_once():
    """A stratum's Poisson-side rows are exactly its quantized-side rows: from
    a cleared memo, the 20 strata of an n = 3 instance miss 20 times on
    the q side and hit 20 times on the p side."""
    params = random_params(random.Random(3), 3, 2)
    spectra._kernel_basis.cache_clear()
    for T in enumerate_admissible(3):
        q = center_lattice(torus_matrix_q(params, T), params.r)
        assert poisson_center_lattice(torus_matrix_p(params, T), params.r) == q
    info = spectra._kernel_basis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (20, 20, 20)
    assert info.maxsize == 1024


def test_integer_kernel_against_sympy():
    """An oracle that shares no code with ``_hermite``, on every stratum system
    for n <= 4, r <= 3 and three seeds (864 systems) and on 300 random m x k
    systems with entries in -4..4: the kernel's rank is k minus the rank of
    the rows, every basis vector solves the system, the basis spans a
    saturated lattice (every Smith invariant is a unit), and it is its own
    Hermite normal form."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    systems = []
    for seed, n, r in product((0, 1, 2), range(1, 5), range(1, 4)):
        params = random_params(random.Random(seed), n, r)
        for T in enumerate_admissible(n):
            qmatrix = torus_matrix_q(params, T)  # stacked as center_lattice stacks it
            systems.append(([c for row in qmatrix for c in zip(*row)], len(qmatrix)))
    assert len(systems) == 864
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        systems.append((rows, k))
    for rows, k in systems:
        basis = integer_kernel(rows, k)
        assert len(basis) == k - sympy.Matrix(rows).rank(), (rows, basis)
        assert all(sum(a * u for a, u in zip(row, v)) == 0 for row in rows for v in basis)
        if basis:
            snf = smith_normal_form(sympy.Matrix(basis), domain=sympy.ZZ)
            assert all(snf[i, i] in (1, -1) for i in range(len(basis))), (rows, basis)
        assert row_hermite_normal_form(basis, k) == [list(v) for v in basis]


def test_kernel_memo_returns_a_new_list():
    basis = integer_kernel([[1, 1, 0], [0, 0, 0]], 3)
    assert basis == [(1, -1, 0), (0, 0, 1)]
    basis.append((5, 5, 5))
    basis[0] = (0, 0, 0)
    assert integer_kernel([[1, 1, 0], [0, 0, 0]], 3) == [(1, -1, 0), (0, 0, 1)]


def test_stratum_reports_are_the_same_from_a_cold_and_a_warm_memo():
    params = random_params(random.Random(17), 4, 2)
    strata = enumerate_admissible(4)
    spectra._kernel_basis.cache_clear()
    cold = [stratum_report(params, T).to_dict() for T in strata]
    assert spectra._kernel_basis.cache_info().hits == 0
    warm = [stratum_report(fresh(params), T).to_dict() for T in strata]
    assert spectra._kernel_basis.cache_info().hits == len(strata)
    assert warm == cold


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_marker_containment_is_set_inclusion(n):
    """All of T's markers reduce to 0 mod U exactly when T is a subset of
    U, for every ordered pair of admissible sets: plain set inclusion is an
    oracle that shares no code with the reduction.  Each marker is also
    reduced times y1^2 x1^2 on the right: that factor lies in no stratum
    ideal and the ideals are completely prime, so the product lies in U's
    ideal exactly when the marker does, and its rewrites leave pair 1 with
    exponents above 1."""
    params = random_params(random.Random(n), n, 2)
    sets = enumerate_admissible(n)
    tail = WeylElement.monomial(params, (2, 2) + (0,) * (2 * n - 2))
    zero = {}  # (marker, U) -> whether the marker and its product reduce to 0 mod U
    for U in sets:
        for marker in {m for T in sets for m in T.markers()}:
            a = WeylElement.generator(params, *marker)
            zero[marker, U] = [not reduce_mod_stratum(params, U, x) for x in (a, a * tail)]
    for T, U in product(sets, sets):
        inside = set(T.markers()) <= set(U.markers())
        for k in (0, 1):
            assert all(zero[m, U][k] for m in T.markers()) == inside, (str(T), str(U), k)


def test_marker_set_of_another_size_is_rejected(params2):
    """A marker set for n = 1 or 3 is not a stratum of an n = 2 instance."""
    calls = [torus_matrix_q, torus_matrix_p, stratum_report,
             check_torus_relations, lambda p, T: reduce_mod_stratum(p, T, WeylElement.one(p))]
    for T in (T_of(1, "z1"), T_of(3, "z3")):
        for call in calls:
            with pytest.raises(ValueError, match=f"has n = {T.n}, the instance n = 2"):
                call(params2, T)


def test_ideal_membership_rejects_a_rescaled_element(params2):
    """Y1 x1 + 1 is not even in the algebra: from_maltsiniotis refuses it."""
    a = eval_rescaled(parse_expr("y1*x1 + 1"), params2)
    with pytest.raises(LocalizationRequiredError):
        from_maltsiniotis(a)
    for call in (reduce_mod_stratum, in_stratum_ideal):
        with pytest.raises(TypeError, match="^reduce_mod_stratum takes a WeylElement, "
                                            "not a MaltsiniotisElement$"):
            call(params2, T_of(2, "z1"), a)


def test_ideal_membership_rejects_an_element_of_another_instance(params2):
    other = WeylParams(2, 2, ((2, 0), (0, 1)), params2.lexp)
    a = WeylElement.generator(other, "x", 2) * WeylElement.generator(other, "y", 2)
    for call in (reduce_mod_stratum, in_stratum_ideal):
        with pytest.raises(ParamsMismatchError, match="^elements belong to different instances$"):
            call(params2, T_of(2, "z2"), a)
    assert reduce_mod_stratum(other, T_of(2, "z2"), a).params is other


def test_torus_relations_all_strata(params3):
    for T in enumerate_admissible(3):
        assert check_torus_relations(params3, T)


# -- the per-instance pair memo ------------------------------------------------------------


def fresh(params):
    """An equal instance with empty memos."""
    return WeylParams(params.n, params.r, params.qexp, params.lexp)


def table_parts(params):
    """The instance's torus table split into the (w, v) -> (c, d, str(d))
    records and the (w, v) -> residue-is-zero verdicts, and its ``atoms``
    as the (cls, w) -> generator images."""
    records, verdicts = {}, {}
    for key, entry in params.torus_table.items():
        if len(key) == 3:
            verdicts[key[1:]] = entry
        else:
            assert isinstance(key[0], tuple), key  # a pair record, not an image
            records[key] = entry
    images = {(cls, (kind, i)): image for (cls, kind, i), image in params.atoms.items()}
    return records, verdicts, images


def test_pair_memo_warm_equals_cold():
    for seed in (3, 8):
        for n in (1, 2, 3):
            warm = random_params(random.Random(seed), n, 2)
            for T in enumerate_admissible(n):
                for compute in (
                    torus_matrix_q,
                    torus_matrix_p,
                    lambda p, T: stratum_report(p, T).to_dict(),
                    check_torus_relations,
                ):
                    assert compute(warm, T) == compute(fresh(warm), T), (seed, n, T)
            records, verdicts, _ = table_parts(warm)
            assert records and verdicts
            assert len(records) + len(verdicts) <= 2 * (3 * n - 1) ** 2


def test_pair_memo_does_not_keep_instances_alive():
    # exponents no other test uses, so no equal instance is cached anywhere
    params = WeylParams(2, 1, ((13,), (17,)), (((0,), (19,)), ((-19,), (0,))))
    ref = weakref.ref(params)
    for T in enumerate_admissible(2):
        torus_matrix_p(params, T)
        assert check_torus_relations(params, T)
    records, verdicts, images = map(set, table_parts(params))  # keys only: no elements
    assert records and verdicts and {cls for cls, _ in images} == {PoissonElement, WeylElement}
    del params
    gc.collect()
    assert ref() is None


def test_pair_memo_keeps_a_wrong_bracket_visible(monkeypatch):
    params = random_params(random.Random(4), 2, 2)
    T = T_of(2)
    torus_matrix_p(params, T)  # fills this instance's memo, not a fresh one's
    right = spectra.pb_bracket
    monkeypatch.setattr(spectra, "pb_bracket", lambda a, b: -right(a, b))
    cold = fresh(params)
    pm, qm = torus_matrix_p(cold, T), torus_matrix_q(cold, T)
    size = len(qm)
    assert any(
        pm[i][j] != MuPoly.linear(qm[i][j]) for i in range(size) for j in range(size)
    )


@pytest.mark.parametrize("fault", ["lower-degree term", "other leading monomial"])
def test_bracket_form_rejects_a_bracket_off_the_product(monkeypatch, fault):
    params = random_params(random.Random(4), 2, 2)
    y1, x2 = ("y", 1), ("x", 2)
    a, b = (PoissonElement.generator(params, *w) for w in (y1, x2))
    right = spectra.pb_bracket
    assert right(a, b)  # {y1, x2} = d y1 x2 with d != 0
    extra = {
        "lower-degree term": PoissonElement.generator(params, "y", 2),
        "other leading monomial": a * b * a,
    }[fault]
    monkeypatch.setattr(spectra, "pb_bracket", lambda a, b: right(a, b) + extra)
    with pytest.raises(ArithmeticError, match=r"^bracket of \('y', 1\) and \('x', 2\) "
                       "is not a scalar multiple of their product$"):
        spectra._bracket_form(a, b, y1, x2)


def test_bracket_form_of_a_zero_bracket_is_zero(monkeypatch):
    params = random_params(random.Random(4), 2, 2)
    z1, z2 = (PoissonElement.generator(params, "z", i) for i in (1, 2))
    assert spectra._bracket_form(z1, z2, ("z", 1), ("z", 2)) == MuPoly.zero(2)
    y1, x2 = (PoissonElement.generator(params, *w) for w in (("y", 1), ("x", 2)))
    monkeypatch.setattr(spectra, "pb_bracket", lambda a, b: PoissonElement.zero(params))
    assert spectra._bracket_form(y1, x2, ("y", 1), ("x", 2)) == MuPoly.zero(2)


NOT_A_MULTIPLE = "is not a scalar multiple of their product$"


@pytest.mark.parametrize("fault", ["missing monomial", "coefficient off", "extra monomial",
                                   "other monomial"])
def test_bracket_form_checks_every_term(monkeypatch, fault):
    params = random_params(random.Random(4), 2, 2)
    z2, y2 = ("z", 2), ("y", 2)
    a, b = (PoissonElement.generator(params, *w) for w in (z2, y2))
    right = spectra.pb_bracket
    br = right(a, b)
    # {z2, y2} = d (y2 + y1 x1 y2 + y2^2 x2); the faults keep its leading term
    assert len(br.terms) == 3 and spectra._bracket_form(a, b, z2, y2)
    low, mid = br.terms[0][0], br.terms[1][0]
    terms = dict(br.terms)
    if fault in ("missing monomial", "other monomial"):
        del terms[mid]
    if fault == "coefficient off":
        terms[low] = terms[low] + MuPoly.variable(2, 0)
    if fault in ("extra monomial", "other monomial"):
        terms[(1, 0, 0, 0)] = MuPoly.one(2)  # y1, not a monomial of z2 y2
    wrong = PoissonElement(params, terms)
    assert wrong.terms[-1] == br.terms[-1]
    monkeypatch.setattr(spectra, "pb_bracket", lambda a, b: wrong)
    with pytest.raises(ArithmeticError, match=r"^bracket of \('z', 2\) and \('y', 2\) "
                       + NOT_A_MULTIPLE):
        spectra._bracket_form(a, b, z2, y2)


def test_bracket_form_rejects_a_coefficient_that_is_not_rational():
    params = random_params(random.Random(4), 2, 2)
    y1, x2 = ("y", 1), ("x", 2)
    a, b = (PoissonElement.generator(params, *w) for w in (y1, x2))
    with pytest.raises(ArithmeticError, match=r"^bracket of \('y', 1\) and \('x', 2\) "
                       + NOT_A_MULTIPLE):
        spectra._bracket_form(a.scale(MuPoly.variable(2, 1)), b, y1, x2)


def test_bracket_form_matches_the_element_route():
    """Oracle: d times the element a * b is the element {a, b}; the one pair
    kind with no such d, y_i with x_i, is rejected."""
    for seed, n, r in product((3, 8), (1, 2, 3), (1, 2, 3)):
        params = random_params(random.Random(seed), n, r)
        gens = [(kind, i) for i in range(1, n + 1) for kind in "zyx"]
        images = {w: PoissonElement.generator(params, *w) for w in gens}
        for w, v in product(gens, repeat=2):
            a, b = images[w], images[v]
            if w[1] == v[1] and {w[0], v[0]} == {"y", "x"}:
                with pytest.raises(ArithmeticError, match=NOT_A_MULTIPLE):
                    spectra._bracket_form(a, b, w, v)
                continue
            d = spectra._bracket_form(a, b, w, v)
            assert spectra.pb_bracket(a, b) == (a * b).scale(d), (seed, n, r, w, v)


def test_torus_derivative_link_sees_a_pair_that_is_not_skew(monkeypatch):
    """One ordered pair shifted on both sides alike keeps d = c . mu, so
    only the suite's antisymmetry check can see it: at the 13th entry of
    the first n = 2 stratum, (y2, y1) of {}."""
    bad = (("y", 2), ("y", 1))
    right_q, right_p = spectra.q_pair_exponent, spectra._bracket_form

    def wrong_q(p, w, v):
        c = right_q(p, w, v)
        return (c[0] + 1,) + c[1:] if (w, v) == bad else c

    def wrong_p(a, b, wa, wb):
        d = right_p(a, b, wa, wb)
        return d + MuPoly.variable(a.params.r, 0) if (wa, wb) == bad else d

    monkeypatch.setattr(spectra, "q_pair_exponent", wrong_q)
    monkeypatch.setattr(spectra, "_bracket_form", wrong_p)
    assert run_suite("torus-derivative-link", 3) == SuiteResult(
        "torus-derivative-link", False, 12, "n=2 T={}")


def test_pair_memo_holds_torus_residues():
    for seed in (3, 8):
        for n in (1, 2, 3):
            params = random_params(random.Random(seed), n, 2)
            for T in enumerate_admissible(n):
                check_torus_relations(params, T)
            _, verdicts, _ = table_parts(params)
            pairs = {pair for T in enumerate_admissible(n) for pair in product(y_set(T), repeat=2)}
            assert set(verdicts) == pairs
            for (w, v), verdict in verdicts.items():
                a, b = WeylElement.generator(params, *w), WeylElement.generator(params, *v)
                eta = QTScalar.monomial(spectra.q_pair_exponent(params, w, v))
                assert verdict is (a * b == (b * a).scale(eta)), (seed, n, w, v)


def test_pair_memo_keeps_a_wrong_exponent_visible(monkeypatch):
    params = random_params(random.Random(4), 2, 2)
    T = T_of(2)
    assert check_torus_relations(params, T)
    right = spectra.q_pair_exponent
    bad = (("y", 2), ("y", 1))  # filled after (y1, y2): it must not be derived

    def wrong(p, w, v):
        c = right(p, w, v)
        return (c[0] + 1,) + c[1:] if (w, v) == bad else c

    monkeypatch.setattr(spectra, "q_pair_exponent", wrong)
    assert not check_torus_relations(fresh(params), T)


def test_pair_memo_keeps_a_wrong_product_visible(monkeypatch):
    params = random_params(random.Random(4), 2, 2)
    T = T_of(2)
    assert check_torus_relations(params, T)  # fills this instance's memo
    y1, y2 = (WeylElement.generator(params, "y", i).terms[0][0] for i in (1, 2))
    right = StraighteningEngine._fold

    def wrong(self, pa, pb):  # the packed product y2 * y1, negated
        out = right(self, pa, pb)
        if list(pa) == [y2] and list(pb) == [y1]:
            return {m: {e: -c for e, c in d.items()} for m, d in out.items()}
        return out

    monkeypatch.setattr(StraighteningEngine, "_fold", wrong)
    cold = fresh(params)
    assert cold == params
    assert not check_torus_relations(cold, T)


# -- the per-instance torus table ------------------------------------------------------------


def fill_every_stratum(params):
    for T in enumerate_admissible(params.n):
        stratum_report(params, T)
        torus_matrix_p(params, T)
        assert check_torus_relations(params, T)


def test_diagonal_residues_take_no_fold(monkeypatch):
    params = random_params(random.Random(6), 3, 2)
    diagonal = []
    right = StraighteningEngine._fold

    def counted(self, pa, pb):
        diagonal.append(pa == pb)  # only the images of one generator pack alike
        return right(self, pa, pb)

    monkeypatch.setattr(StraighteningEngine, "_fold", counted)
    fill_every_stratum(params)
    assert diagonal and not any(diagonal)
    gens = {w for T in enumerate_admissible(3) for w in y_set(T)}
    assert all(params.torus_table[("q", w, w)] is True for w in gens)


def test_a_nonzero_diagonal_exponent_is_folded_and_fails(monkeypatch):
    params = random_params(random.Random(4), 2, 2)
    T = T_of(2)
    assert check_torus_relations(params, T)
    right = spectra.q_pair_exponent

    def wrong(p, w, v):
        c = right(p, w, v)
        return (c[0] + 1,) + c[1:] if w == v == ("y", 1) else c

    monkeypatch.setattr(spectra, "q_pair_exponent", wrong)
    assert not check_torus_relations(fresh(params), T)


def test_generator_images_are_built_once_per_instance(monkeypatch):
    built = []
    right = PbwElement.generator.__func__

    def counted(cls, params, kind, i):
        built.append((cls, kind, i))
        return right(cls, params, kind, i)

    monkeypatch.setattr(PbwElement, "generator", classmethod(counted))
    for n in (1, 2, 3):
        built.clear()
        fill_every_stratum(random_params(random.Random(9), n, 2))
        assert 0 < len(built) <= 2 * (3 * n - 1)
        assert len(set(built)) == len(built)


def test_stratum_report_prints_the_forms_of_the_p_table():
    for n in (1, 2, 3):
        params = random_params(random.Random(10), n, 3)
        for T in enumerate_admissible(n):
            printed = stratum_report(params, T).pmatrix
            for pm in (torus_matrix_p(params, T), torus_matrix_p(fresh(params), T)):
                assert printed == tuple(tuple(str(d) for d in row) for row in pm), (n, T)


def test_torus_table_bound():
    for seed in (3, 8):
        for n in (1, 2, 3):
            params = random_params(random.Random(seed), n, 2)
            fill_every_stratum(params)
            records, verdicts, images = table_parts(params)
            gens = 3 * n - 1
            assert set(records) == set(verdicts) and len(records) <= gens**2
            assert all(text == str(d) for _, d, text in records.values())
            assert len(params.torus_table) <= 2 * gens**2
            assert {cls for cls, _ in images} == {PoissonElement, WeylElement}
            assert len(images) <= 2 * gens
            assert all(image == cls.generator(params, *w) for (cls, w), image in images.items())


def test_each_pair_is_computed_once(monkeypatch):
    """Filling every stratum of an instance computes each ordered pair's
    exponent and Poisson bracket once, and one q_commutators call per
    unordered off-diagonal pair gives both residues."""
    params = random_params(random.Random(6), 3, 2)
    exponents, brackets, commutators, depth = [], [], [], []
    exponent, bracket = spectra.q_pair_exponent, spectra.pb_bracket
    commute = StraighteningEngine.q_commutators

    def counted_exponent(p, w, v):  # counts the outer call, not its recursion
        if not depth:
            exponents.append((w, v))
        depth.append(1)
        try:
            return exponent(p, w, v)
        finally:
            depth.pop()

    def counted_bracket(a, b):
        brackets.append((a, b))  # the images stay in the table, so ids stay unique
        return bracket(a, b)

    def counted_commute(self, ta, tb, *cs):
        commutators.append(tuple(tuple(m for m, _ in t) for t in (ta, tb)))
        return commute(self, ta, tb, *cs)

    monkeypatch.setattr(spectra, "q_pair_exponent", counted_exponent)
    monkeypatch.setattr(spectra, "pb_bracket", counted_bracket)
    monkeypatch.setattr(StraighteningEngine, "q_commutators", counted_commute)
    fill_every_stratum(params)
    pairs = {pair for T in enumerate_admissible(3) for pair in product(y_set(T), repeat=2)}
    _, _, images = table_parts(params)
    of_image = {id(image): w for (cls, w), image in images.items() if cls is PoissonElement}
    of_monomials = {tuple(m for m, _ in image.terms): w
                    for (cls, w), image in images.items() if cls is WeylElement}
    assert len(of_monomials) == len(of_image) == len({w for pair in pairs for w in pair})
    assert sorted(exponents) == sorted(pairs)
    assert sorted((of_image[id(a)], of_image[id(b)]) for a, b in brackets) == sorted(pairs)
    met = sorted(tuple(sorted(of_monomials[monos] for monos in call)) for call in commutators)
    assert met == sorted(pair for pair in pairs if pair[0] < pair[1])


def test_torus_check_is_exact_not_modulo_the_ideal(monkeypatch):
    params = random_params(random.Random(4), 2, 2)
    T = T_of(2, "z1", "z2", "x2")
    monkeypatch.setattr(spectra, "in_stratum_ideal", lambda *args: True)  # absorbs everything
    monkeypatch.setattr(spectra, "reduce_mod_stratum", lambda p, *args: WeylElement.zero(p))
    assert check_torus_relations(params, T)
    right = spectra.q_pair_exponent

    def wrong(p, w, v):
        c = right(p, w, v)
        return (c[0] + 1,) + c[1:] if (w, v) == (("y", 1), ("y", 2)) else c

    monkeypatch.setattr(spectra, "q_pair_exponent", wrong)
    assert not check_torus_relations(fresh(params), T)


def test_table_fill_divides_no_form_by_one(monkeypatch):
    """Every ordered pair of an instance's stratum generators is bracketed
    once, and where ab[m] is 1, as on every pair here, d is the bracket's
    leading coefficient itself: filling the forms of all 20 strata of an
    n = 3 instance brackets its 52 pairs and scales no MuPoly."""
    params = random_params(random.Random(3), 3, 2)
    scaled, brackets, right = [], [], spectra.pb_bracket
    scale = MuPoly.scale
    monkeypatch.setattr(MuPoly, "scale", lambda self, c: scaled.append(c) or scale(self, c))
    monkeypatch.setattr(spectra, "pb_bracket", lambda a, b: brackets.append(1) or right(a, b))
    tables = [torus_matrix_p(params, T) for T in enumerate_admissible(3)]
    assert (len(tables), len(brackets), scaled) == (20, 52, [])
    for T, table in zip(enumerate_admissible(3), tables):
        assert table == tuple(tuple(map(MuPoly.linear, row)) for row in torus_matrix_q(params, T))


@pytest.mark.parametrize("factor", [2, Fraction(-1, 3)])
@pytest.mark.parametrize("slot", [0, 1])
def test_bracket_form_rejects_a_coefficient_off_by_a_factor(monkeypatch, factor, slot):
    params = random_params(random.Random(4), 2, 2)
    z2, y2 = ("z", 2), ("y", 2)
    a, b = (PoissonElement.generator(params, *w) for w in (z2, y2))
    d = spectra._bracket_form(a, b, z2, y2)
    # {z2, z2 y2} = d z2 z2 y2, whose product has unequal rationals, 3/2 at the leading one
    a, b = a.scale(Fraction(3, 2)), a * b
    assert spectra._bracket_form(a, b, z2, y2) == d
    right = spectra.pb_bracket
    terms = dict(right(a, b).terms)
    mono = right(a, b).terms[slot][0]  # below the leading monomial
    terms[mono] = terms[mono].scale(factor)
    monkeypatch.setattr(spectra, "pb_bracket", lambda a, b: PoissonElement(params, terms))
    with pytest.raises(ArithmeticError, match=r"^bracket of \('z', 2\) and \('y', 2\) "
                       + NOT_A_MULTIPLE):
        spectra._bracket_form(a, b, z2, y2)
