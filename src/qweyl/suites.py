"""Verification suites: every identity the library promises, run exactly.

Each suite returns a :class:`SuiteResult`; all comparisons are exact
equalities in rational / symbolic arithmetic (zero tolerance).  The suites
are deterministic for a fixed seed and are shared between the pytest
acceptance module and the command-line ``verify`` command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .interp import SpecializedAlgebra, build_e, build_e_family
from .poisson import (
    PoissonElement,
    gamma1,
    jacobiator,
    p_z,
    pb_bracket,
    semiclassical_bracket,
)
from .quantum_plane import relation_holds, semiclassical_bracket_xy
from .scalars import MuPoly, QTScalar, vec_add
from .spectra import (
    brute_force_admissible,
    center_lattice,
    check_torus_relations,
    enumerate_admissible,
    poisson_center_lattice,
    torus_matrix_p,
    torus_matrix_q,
)
from .weyl import (
    WeylElement,
    WeylParams,
    from_maltsiniotis,
    pos_x,
    pos_y,
    wa_z,
)

DEFAULT_SEED = 20250808


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    detail: str = ""


# -- randomized data -------------------------------------------------------------


def random_params(rng: random.Random, n: int, r: int) -> WeylParams:
    def vec(lo=-2, hi=2):
        return tuple(rng.randint(lo, hi) for _ in range(r))

    qexp = []
    for _ in range(n):
        v = vec()
        while not any(v):
            v = vec()
        qexp.append(v)
    lexp = [[(0,) * r] * n for _ in range(n)]
    for i in range(n):
        lexp[i] = list(lexp[i])
    for i in range(n):
        for j in range(i + 1, n):
            v = vec()
            lexp[i][j] = v
            lexp[j][i] = tuple(-e for e in v)
    return WeylParams(n, r, tuple(qexp), tuple(tuple(row) for row in lexp))


def random_scalar(rng: random.Random, r: int) -> QTScalar:
    vec = tuple(rng.randint(-2, 2) for _ in range(r))
    coeff = rng.choice(
        [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    )
    return QTScalar.monomial(vec, coeff)


def random_weyl(
    rng: random.Random,
    params: WeylParams,
    max_degree: int = 3,
    max_terms: int = 3,
) -> WeylElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        mono = [0] * (2 * params.n)
        for _ in range(deg):
            mono[rng.randrange(2 * params.n)] += 1
        terms.append((tuple(mono), random_scalar(rng, params.r)))
    return WeylElement(params, terms)


def random_poisson(
    rng: random.Random,
    params: WeylParams,
    max_degree: int = 2,
    max_terms: int = 3,
) -> PoissonElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        mono = [0] * (2 * params.n)
        for _ in range(deg):
            mono[rng.randrange(2 * params.n)] += 1
        coeff = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        terms.append((tuple(mono), MuPoly.constant(params.r, coeff)))
    return PoissonElement(params, terms)


def _mono(params: WeylParams, pairs) -> tuple[int, ...]:
    m = [0] * (2 * params.n)
    for kind, i in pairs:
        m[pos_y(i) if kind == "y" else pos_x(i)] += 1
    return tuple(m)


# -- suites -----------------------------------------------------------------------


def suite_pbw_associativity(seed: int = DEFAULT_SEED, cases: int = 200) -> SuiteResult:
    """(a b) c = a (b c) on random triples: the rewriting is confluent."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(cases):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        params = random_params(rng, n, r)
        a, b, c = (random_weyl(rng, params) for _ in range(3))
        if (a * b) * c != a * (b * c):
            return SuiteResult(
                "pbw-associativity", False, checks, f"failed at case {checks}"
            )
        checks += 1
    return SuiteResult("pbw-associativity", True, checks, f"{cases} random triples")


def _z_table_cases(params: WeylParams):
    """The eleven commutation families of the quantized algebra."""
    n = params.n
    for j in range(1, n + 1):
        for i in range(1, j):
            yi, yj = WeylElement.generator(params, "y", i), WeylElement.generator(params, "y", j)
            xi, xj = WeylElement.generator(params, "x", i), WeylElement.generator(params, "x", j)
            lam_ij = params.lam_scalar(i, j)
            lam_ji = params.lam_scalar(j, i)
            qi = params.q_scalar(i)
            yield yj * yi, (yi * yj).scale(lam_ji)
            yield yj * xi, (xi * yj).scale(lam_ij)
            yield xj * yi, (yi * xj).scale(qi * lam_ij)
            yield (xj * xi).scale(qi * lam_ij), xi * xj
    for i in range(1, n + 1):
        yi, xi = WeylElement.generator(params, "y", i), WeylElement.generator(params, "x", i)
        qi = params.q_scalar(i)
        qm1 = qi - 1
        yield xi * yi - (yi * xi).scale(qi), wa_z(params, i - 1).scale(qm1)
        yield xi * yi - yi * xi, wa_z(params, i).scale(qm1)
    for i in range(1, n + 1):
        zi = wa_z(params, i)
        for j in range(1, n + 1):
            yj, xj = WeylElement.generator(params, "y", j), WeylElement.generator(params, "x", j)
            qj = params.q_scalar(j)
            if i < j:
                yield yj * zi, zi * yj
                yield xj * zi, zi * xj
            else:
                yield (yj * zi).scale(qj), zi * yj
                yield xj * zi, (zi * xj).scale(qj)
        for j in range(1, n + 1):
            yield zi * wa_z(params, j), wa_z(params, j) * zi


def suite_z_relations_quantum(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Full commutation table with the central family z_i, n = 1..4."""
    rng = random.Random(seed + 1)
    checks = 0
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        for lhs, rhs in _z_table_cases(params):
            if lhs != rhs:
                return SuiteResult(
                    "z-relations-quantum", False, checks, f"failed at n={n}"
                )
            checks += 1
    return SuiteResult("z-relations-quantum", True, checks, "n=1..4, all families")


def suite_semiclassical_consistency(
    seed: int = DEFAULT_SEED, cases: int = 200
) -> SuiteResult:
    """{gamma1 a, gamma1 b} equals the (t-1)-limit bracket of (a, b)."""
    rng = random.Random(seed + 2)
    checks = 0
    for _ in range(cases):
        n = rng.randint(1, 3)
        params = random_params(rng, n, rng.randint(1, 2))
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        if pb_bracket(gamma1(a), gamma1(b)) != semiclassical_bracket(a, b):
            return SuiteResult(
                "semiclassical-consistency", False, checks, f"failed at case {checks}"
            )
        checks += 1
    return SuiteResult(
        "semiclassical-consistency", True, checks, f"{cases} random pairs"
    )


def suite_bracket_closed_forms(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Limit brackets of generator pairs match the closed coefficient table."""
    rng = random.Random(seed + 3)
    checks = 0
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        gens = {
            (kind, i): WeylElement.generator(params, kind, i)
            for kind in ("y", "x")
            for i in range(1, n + 1)
        }
        for j in range(1, n + 1):
            for i in range(1, j):
                expect = {
                    ("y", j, "y", i): (
                        params.L(j, i), _mono(params, [("y", i), ("y", j)])
                    ),
                    ("y", j, "x", i): (
                        params.L(i, j), _mono(params, [("x", i), ("y", j)])
                    ),
                    ("x", j, "y", i): (
                        vec_add(params.s(i), params.L(i, j)),
                        _mono(params, [("y", i), ("x", j)]),
                    ),
                }
                for (k1, a, k2, b), (vec, mono) in expect.items():
                    got = semiclassical_bracket(gens[(k1, a)], gens[(k2, b)])
                    want = PoissonElement.monomial(params, mono, MuPoly.linear(vec))
                    if got != want:
                        return SuiteResult(
                            "bracket-closed-forms", False, checks, f"n={n} {k1}{a},{k2}{b}"
                        )
                    checks += 1
                got = semiclassical_bracket(gens[("x", j)], gens[("x", i)])
                want = PoissonElement.monomial(
                    params,
                    _mono(params, [("x", i), ("x", j)]),
                    -MuPoly.linear(vec_add(params.s(i), params.L(i, j))),
                )
                if got != want:
                    return SuiteResult(
                        "bracket-closed-forms", False, checks, f"n={n} x{j},x{i}"
                    )
                checks += 1
        for i in range(1, n + 1):
            got = semiclassical_bracket(gens[("x", i)], gens[("y", i)])
            want = p_z(params, i).scale(MuPoly.linear(params.s(i)))
            if got != want:
                return SuiteResult(
                    "bracket-closed-forms", False, checks, f"n={n} x{i},y{i}"
                )
            checks += 1
    return SuiteResult("bracket-closed-forms", True, checks, "all generator pairs, n=1..4")


def suite_jacobi(seed: int = DEFAULT_SEED, cases: int = 100) -> SuiteResult:
    rng = random.Random(seed + 4)
    checks = 0
    for _ in range(cases):
        n = rng.randint(1, 3)
        params = random_params(rng, n, rng.randint(1, 2))
        a, b, c = (random_poisson(rng, params) for _ in range(3))
        if jacobiator(a, b, c):
            return SuiteResult("jacobi", False, checks, f"failed at case {checks}")
        checks += 1
    return SuiteResult("jacobi", True, checks, f"{cases} random triples")


def suite_z_relations_poisson(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Full bracket table with the Poisson-central family z_i, n = 1..4."""
    rng = random.Random(seed + 5)
    checks = 0
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        gens = {
            (kind, i): PoissonElement.generator(params, kind, i)
            for kind in ("y", "x")
            for i in range(1, n + 1)
        }
        pz = {i: p_z(params, i) for i in range(0, n + 1)}
        cases_table: list[tuple[PoissonElement, PoissonElement]] = []
        for i in range(1, n + 1):
            si = MuPoly.linear(params.s(i))
            yx = PoissonElement.monomial(params, _mono(params, [("y", i), ("x", i)]))
            br = pb_bracket(gens[("x", i)], gens[("y", i)])
            cases_table.append((br - yx.scale(si), pz[i - 1].scale(si)))
            cases_table.append((br, pz[i].scale(si)))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                sj = MuPoly.linear(params.s(j))
                by = pb_bracket(gens[("y", j)], pz[i])
                bx = pb_bracket(gens[("x", j)], pz[i])
                if i < j:
                    cases_table.append((by, PoissonElement.zero(params)))
                    cases_table.append((bx, PoissonElement.zero(params)))
                else:
                    cases_table.append((by, -(gens[("y", j)] * pz[i]).scale(sj)))
                    cases_table.append((bx, (gens[("x", j)] * pz[i]).scale(sj)))
                cases_table.append((pb_bracket(pz[i], pz[j]), PoissonElement.zero(params)))
        for lhs, rhs in cases_table:
            if lhs != rhs:
                return SuiteResult(
                    "z-relations-poisson", False, checks, f"failed at n={n}"
                )
            checks += 1
    return SuiteResult("z-relations-poisson", True, checks, "n=1..4, all families")


def suite_torus_derivative_link(seed: int = DEFAULT_SEED) -> SuiteResult:
    """pmatrix equals the qmatrix exponents dotted with mu, entrywise,
    with the two sides computed by independent code paths."""
    rng = random.Random(seed + 6)
    checks = 0
    strata = 0
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        for T in enumerate_admissible(n):
            qm = torus_matrix_q(params, T)
            pm = torus_matrix_p(params, T)
            strata += 1
            for i in range(len(qm)):
                for j in range(len(qm)):
                    if pm[i][j] != MuPoly.linear(qm[i][j]):
                        return SuiteResult(
                            "torus-derivative-link", False, checks, f"n={n} T={T}"
                        )
                    checks += 1
    return SuiteResult(
        "torus-derivative-link", True, checks, f"{strata} strata over n=1..4"
    )


def suite_center_lattices(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Quantized and Poisson center lattices coincide; both agree with the
    exhaustive |u_j| <= 3 oracle."""
    rng = random.Random(seed + 7)
    checks = 0
    for n in range(1, 4):
        params = random_params(rng, n, 2)
        for T in enumerate_admissible(n):
            qm = torus_matrix_q(params, T)
            pm = torus_matrix_p(params, T)
            lat_q = center_lattice(qm, params.r)
            lat_p = poisson_center_lattice(pm, params.r)
            if lat_q.basis != lat_p.basis:
                return SuiteResult(
                    "center-lattices", False, checks, f"lattices differ, n={n} T={T}"
                )
            checks += 1
            s = lat_q.size
            for u in product(range(-3, 4), repeat=s):
                in_kernel = True
                for l in range(s):
                    acc = [0] * params.r
                    for j in range(s):
                        for k in range(params.r):
                            acc[k] += u[j] * qm[l][j][k]
                    if any(acc):
                        in_kernel = False
                        break
                if in_kernel != lat_q.contains(u):
                    return SuiteResult(
                        "center-lattices", False, checks, f"oracle mismatch at u={u}"
                    )
                checks += 1
    return SuiteResult("center-lattices", True, checks, "n=1..3, exhaustive box oracle")


def suite_admissible_counts() -> SuiteResult:
    """Enumerator agrees with the brute-force subset filter for n = 1..4;
    the frozen counts 2, 6, 20, 68 were produced by the brute-force
    oracle."""
    expected = {1: 2, 2: 6, 3: 20, 4: 68}
    checks = 0
    for n, count in expected.items():
        fast = enumerate_admissible(n)
        slow = brute_force_admissible(n)
        if len(fast) != count or len(slow) != count:
            return SuiteResult(
                "admissible-counts",
                False,
                checks,
                f"n={n}: enumerator {len(fast)}, brute force {len(slow)}, frozen {count}",
            )
        if set(fast) != set(slow) or len(set(fast)) != len(fast):
            return SuiteResult(
                "admissible-counts", False, checks, f"n={n}: sets disagree"
            )
        if not all(T.is_admissible() for T in fast):
            return SuiteResult(
                "admissible-counts", False, checks, f"n={n}: non-admissible output"
            )
        checks += 1
    return SuiteResult(
        "admissible-counts", True, checks, "n=1..4 vs brute force, frozen 2/6/20/68"
    )


def suite_interpolation(seed: int = DEFAULT_SEED, cases: int = 50) -> SuiteResult:
    """Interpolation residuals vanish exactly; the (2, 3, 1) instance is
    t^2 - t + 1."""
    rng = random.Random(seed + 8)
    checks = 0
    e = build_e(2, 3, 1)
    if (e.a, e.b, e.c) != (1, -1, 1):
        return SuiteResult("interpolation", False, checks, "frozen instance changed")
    checks += 1
    for _ in range(cases):
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        while q in (0, 1):
            q = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        eta = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        while eta == 0:
            eta = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        mu = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        e = build_e(q, eta, mu)
        if (e(q) - eta, e(1) - 1, e.deriv_at(1) - mu) != (0, 0, 0):
            return SuiteResult(
                "interpolation", False, checks, f"residual at q={q}, eta={eta}, mu={mu}"
            )
        checks += 1
    return SuiteResult("interpolation", True, checks, f"{cases} random targets")


def suite_specialization(seed: int = DEFAULT_SEED, cases: int = 100) -> SuiteResult:
    """Specialization is multiplicative: spec(ab) = spec(a) spec(b) in the
    concrete algebra, across >= 5 sample points."""
    rng = random.Random(seed + 9)
    checks = 0
    n, r = 2, 2
    params = random_params(rng, n, r)
    etas = [Fraction(3), Fraction(5, 2)]
    mus = [Fraction(1), Fraction(1, 2)]
    e_polys = build_e_family(Fraction(2), etas, mus)
    lambdas = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(5, 3)]
    algebras = [SpecializedAlgebra(params, lam, e_polys) for lam in lambdas]
    for _ in range(cases):
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        ab = a * b
        for alg in algebras:
            lhs = alg.specialize(ab)
            rhs = alg.mul(alg.specialize(a), alg.specialize(b))
            if lhs != rhs:
                return SuiteResult(
                    "specialization", False, checks, f"failed at lambda={alg.lam}"
                )
            checks += 1
    return SuiteResult(
        "specialization", True, checks, f"{cases} pairs x {len(lambdas)} sample points"
    )


def suite_rescaling_relations(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Images of the unrescaled presentation's defining relations under the
    generator rescaling normalize to zero, n = 1..3."""
    rng = random.Random(seed + 10)
    checks = 0
    for n in range(1, 4):
        params = random_params(rng, n, 2)
        one = QTScalar.one(params.r)
        relations = []
        for j in range(1, n + 1):
            for i in range(1, j):
                lam_ij, lam_ji = params.lam_scalar(i, j), params.lam_scalar(j, i)
                qi = params.q_scalar(i)
                relations.append(
                    [(one, (("y", j), ("y", i))), (-lam_ji, (("y", i), ("y", j)))]
                )
                relations.append(
                    [(one, (("y", j), ("x", i))), (-lam_ij, (("x", i), ("y", j)))]
                )
                relations.append(
                    [(one, (("x", j), ("y", i))), (-(qi * lam_ij), (("y", i), ("x", j)))]
                )
                relations.append(
                    [(qi * lam_ij, (("x", j), ("x", i))), (-one, (("x", i), ("x", j)))]
                )
        for i in range(1, n + 1):
            rel = [
                (one, (("x", i), ("y", i))),
                (-params.q_scalar(i), (("y", i), ("x", i))),
                (-one, ()),
            ]
            for k in range(1, i):
                rel.append((-(params.q_scalar(k) - 1), (("y", k), ("x", k))))
            relations.append(rel)
        for rel in relations:
            if from_maltsiniotis(params, rel):
                return SuiteResult(
                    "rescaling-relations", False, checks, f"nonzero image at n={n}"
                )
            checks += 1
    return SuiteResult("rescaling-relations", True, checks, "all defining relations, n=1..3")


def suite_quantum_plane() -> SuiteResult:
    """The two-generator demo: skew relation and classical bracket."""
    checks = 0
    if not relation_holds():
        return SuiteResult("quantum-plane", False, checks, "relation fails")
    checks += 1
    if semiclassical_bracket_xy() != {(1, 1): MuPoly.variable(1, 0)}:
        return SuiteResult("quantum-plane", False, checks, "bracket differs")
    checks += 1
    # with e_1 = t the derivative symbol takes the value 1: {x, y} = x y
    bracket = semiclassical_bracket_xy()
    if {m: d.subs([Fraction(1)]) for m, d in bracket.items()} != {(1, 1): Fraction(1)}:
        return SuiteResult("quantum-plane", False, checks, "numeric bracket differs")
    checks += 1
    return SuiteResult("quantum-plane", True, checks, "relation and limit bracket")


def suite_torus_relations_ideal(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Every tabulated torus commutation reduces into the stratum's
    one-sided ideal (exact membership), n = 1..3."""
    rng = random.Random(seed + 11)
    checks = 0
    for n in range(1, 4):
        params = random_params(rng, n, 2)
        for T in enumerate_admissible(n):
            if not check_torus_relations(params, T):
                return SuiteResult(
                    "torus-relations-ideal", False, checks, f"n={n} T={T}"
                )
            checks += 1
    return SuiteResult("torus-relations-ideal", True, checks, "all strata, n=1..3")


ALL_SUITES: dict[str, Callable[..., SuiteResult]] = {
    "pbw-associativity": suite_pbw_associativity,
    "z-relations-quantum": suite_z_relations_quantum,
    "semiclassical-consistency": suite_semiclassical_consistency,
    "bracket-closed-forms": suite_bracket_closed_forms,
    "jacobi": suite_jacobi,
    "z-relations-poisson": suite_z_relations_poisson,
    "torus-derivative-link": suite_torus_derivative_link,
    "center-lattices": suite_center_lattices,
    "admissible-counts": suite_admissible_counts,
    "interpolation": suite_interpolation,
    "specialization": suite_specialization,
    "rescaling-relations": suite_rescaling_relations,
    "quantum-plane": suite_quantum_plane,
    "torus-relations-ideal": suite_torus_relations_ideal,
}

_SEEDLESS = {"admissible-counts", "quantum-plane"}


def run_suites(
    names: Sequence[str] | None = None, seed: int = DEFAULT_SEED
) -> list[SuiteResult]:
    chosen = list(ALL_SUITES) if names is None else list(names)
    results = []
    for name in chosen:
        if name not in ALL_SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
        fn = ALL_SUITES[name]
        results.append(fn() if name in _SEEDLESS else fn(seed))
    return results
