"""Verification suites: every identity the library promises, run exactly.

A suite is a generator of checks.  It takes a seeded ``random.Random`` and
yields ``None`` for each check that holds and a failure detail string for
one that fails; the detail is formatted only on failure.  ``run_suite``
counts the checks, stops at the first failure and builds the suite's
:class:`SuiteResult`.  Adding a suite means writing one generator and one
``SUITES`` row (generator, seed offset, detail reported on a pass).

All comparisons are exact equalities in rational / symbolic arithmetic
(zero tolerance).  The suites are deterministic for a fixed seed and are
shared between the pytest acceptance module and the command-line
``verify`` command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import prod
from typing import Callable, Iterator, Sequence

from . import DEFAULT_SEED
from .exprs import eval_rescaled, eval_weyl, parse_expr
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
from .scalars import MuPoly, QTScalar, vec_add, vec_neg, vec_sub
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
    pos_x,
    pos_y,
    wa_z,
)

# random cases per randomized suite
PBW_TRIPLES = 200
SEMICLASSICAL_PAIRS = 200
JACOBI_TRIPLES = 100
INTERPOLATION_TARGETS = 50
SPECIALIZATION_PAIRS = 100
SPECIALIZATION_POINTS = (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(5, 3))

Checks = Iterator[str | None]  # None for a check that holds, else the failure detail


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


def _random_mono(rng: random.Random, n: int, max_degree: int) -> tuple[int, ...]:
    mono = [0] * (2 * n)
    for _ in range(rng.randint(0, max_degree)):
        mono[rng.randrange(2 * n)] += 1
    return tuple(mono)


def random_weyl(
    rng: random.Random,
    params: WeylParams,
    max_degree: int = 3,
    max_terms: int = 3,
) -> WeylElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = _random_mono(rng, params.n, max_degree)
        terms.append((mono, random_scalar(rng, params.r)))
    return WeylElement(params, terms)


def random_poisson(
    rng: random.Random,
    params: WeylParams,
    max_degree: int = 2,
    max_terms: int = 3,
) -> PoissonElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = _random_mono(rng, params.n, max_degree)
        coeff = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        terms.append((mono, MuPoly.constant(params.r, coeff)))
    return PoissonElement(params, terms)


def _mono(params: WeylParams, pairs) -> tuple[int, ...]:
    m = [0] * (2 * params.n)
    for kind, i in pairs:
        m[pos_y(i) if kind == "y" else pos_x(i)] += 1
    return tuple(m)


# -- suites -----------------------------------------------------------------------


def _pbw_associativity(rng: random.Random) -> Checks:
    """(a b) c = a (b c) on random triples: the rewriting is confluent."""
    for case in range(PBW_TRIPLES):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        params = random_params(rng, n, r)
        a, b, c = (random_weyl(rng, params) for _ in range(3))
        yield None if (a * b) * c == a * (b * c) else f"failed at case {case}"


def _z_table_cases(params: WeylParams):
    """The eleven commutation families of the quantized algebra, with the
    central family z_i."""
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


def _z_relations(table: Callable[[WeylParams], Iterator], rng: random.Random) -> Checks:
    """Both sides of every entry of a z-family table agree, n = 1..4."""
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        for lhs, rhs in table(params):
            yield None if lhs == rhs else f"failed at n={n}"


def _semiclassical_consistency(rng: random.Random) -> Checks:
    """{gamma1 a, gamma1 b} equals the (t-1)-limit bracket of (a, b)."""
    for case in range(SEMICLASSICAL_PAIRS):
        n = rng.randint(1, 3)
        params = random_params(rng, n, rng.randint(1, 2))
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        ok = pb_bracket(gamma1(a), gamma1(b)) == semiclassical_bracket(a, b)
        yield None if ok else f"failed at case {case}"


def _bracket_closed_forms(rng: random.Random) -> Checks:
    """Limit brackets of generator pairs match the closed coefficient table."""
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        gens = {
            (kind, i): WeylElement.generator(params, kind, i)
            for kind in ("y", "x")
            for i in range(1, n + 1)
        }
        for j in range(1, n + 1):
            for i in range(1, j):
                sl = MuPoly.linear(vec_add(params.s(i), params.L(i, j)))
                expect = {
                    ("y", j, "y", i): (MuPoly.linear(params.L(j, i)), [("y", i), ("y", j)]),
                    ("y", j, "x", i): (MuPoly.linear(params.L(i, j)), [("x", i), ("y", j)]),
                    ("x", j, "y", i): (sl, [("y", i), ("x", j)]),
                    ("x", j, "x", i): (-sl, [("x", i), ("x", j)]),
                }
                for (k1, a, k2, b), (coeff, pairs) in expect.items():
                    got = semiclassical_bracket(gens[(k1, a)], gens[(k2, b)])
                    want = PoissonElement.monomial(params, _mono(params, pairs), coeff)
                    yield None if got == want else f"n={n} {k1}{a},{k2}{b}"
        for i in range(1, n + 1):
            got = semiclassical_bracket(gens[("x", i)], gens[("y", i)])
            want = p_z(params, i).scale(MuPoly.linear(params.s(i)))
            yield None if got == want else f"n={n} x{i},y{i}"


def _jacobi(rng: random.Random) -> Checks:
    for case in range(JACOBI_TRIPLES):
        n = rng.randint(1, 3)
        params = random_params(rng, n, rng.randint(1, 2))
        a, b, c = (random_poisson(rng, params) for _ in range(3))
        yield f"failed at case {case}" if jacobiator(a, b, c) else None


def _poisson_z_table_cases(params: WeylParams):
    """The full bracket table of the Poisson algebra, with the
    Poisson-central family z_i."""
    n = params.n
    gens = {
        (kind, i): PoissonElement.generator(params, kind, i)
        for kind in ("y", "x")
        for i in range(1, n + 1)
    }
    pz = {i: p_z(params, i) for i in range(0, n + 1)}
    for i in range(1, n + 1):
        si = MuPoly.linear(params.s(i))
        yx = PoissonElement.monomial(params, _mono(params, [("y", i), ("x", i)]))
        br = pb_bracket(gens[("x", i)], gens[("y", i)])
        yield br - yx.scale(si), pz[i - 1].scale(si)
        yield br, pz[i].scale(si)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sj = MuPoly.linear(params.s(j))
            by = pb_bracket(gens[("y", j)], pz[i])
            bx = pb_bracket(gens[("x", j)], pz[i])
            if i < j:
                yield by, PoissonElement.zero(params)
                yield bx, PoissonElement.zero(params)
            else:
                yield by, -(gens[("y", j)] * pz[i]).scale(sj)
                yield bx, (gens[("x", j)] * pz[i]).scale(sj)
            yield pb_bracket(pz[i], pz[j]), PoissonElement.zero(params)


def _torus_derivative_link(rng: random.Random) -> Checks:
    """pmatrix equals the qmatrix exponents dotted with mu, entrywise,
    with the two sides computed by independent code paths, and both
    matrices are antisymmetric: c_ji = -c_ij and d_ji = -d_ij.  The
    torus-relations-ideal residues already imply the exponents'
    antisymmetry (the algebra is a domain); this suite checks it by name."""
    for n in range(1, 5):
        params = random_params(rng, n, rng.randint(2, 3))
        for T in enumerate_admissible(n):
            qm = torus_matrix_q(params, T)
            pm = torus_matrix_p(params, T)
            for i in range(len(qm)):
                for j in range(len(qm)):
                    yield None if (pm[i][j] == MuPoly.linear(qm[i][j])
                                   and qm[i][j] == vec_neg(qm[j][i])
                                   and pm[i][j] == -pm[j][i]) else f"n={n} T={T}"


def _center_lattices(rng: random.Random) -> Checks:
    """Quantized and Poisson center lattices coincide; both agree with the
    exhaustive |u_j| <= 3 oracle."""
    for n in range(1, 4):
        params = random_params(rng, n, 2)
        for T in enumerate_admissible(n):
            qm = torus_matrix_q(params, T)
            pm = torus_matrix_p(params, T)
            lat_q = center_lattice(qm, params.r)
            lat_p = poisson_center_lattice(pm, params.r)
            yield None if lat_q.basis == lat_p.basis else f"lattices differ, n={n} T={T}"
            s = lat_q.size
            for u in product(range(-3, 4), repeat=s):
                in_kernel = all(
                    sum(u[j] * qm[l][j][k] for j in range(s)) == 0
                    for l in range(s)
                    for k in range(params.r)
                )
                yield None if in_kernel == lat_q.contains(u) else f"oracle mismatch at u={u}"


def _admissible_counts(_rng: random.Random) -> Checks:
    """Enumerator agrees with the brute-force subset filter for n = 1..4;
    the frozen counts 2, 6, 20, 68 were produced by the brute-force
    oracle."""
    for n, count in {1: 2, 2: 6, 3: 20, 4: 68}.items():
        fast = enumerate_admissible(n)
        slow = brute_force_admissible(n)
        if len(fast) != count or len(slow) != count:
            yield f"n={n}: enumerator {len(fast)}, brute force {len(slow)}, frozen {count}"
        elif set(fast) != set(slow) or len(set(fast)) != len(fast):
            yield f"n={n}: sets disagree"
        elif not all(T.is_admissible() for T in fast):
            yield f"n={n}: non-admissible output"
        else:
            yield None


def _interpolation(rng: random.Random) -> Checks:
    """Interpolation residuals vanish exactly; the (2, 3, 1) instance is
    t^2 - t + 1."""
    e = build_e(2, 3, 1)
    yield None if (e.a, e.b, e.c) == (1, -1, 1) else "frozen instance changed"
    for _ in range(INTERPOLATION_TARGETS):
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        while q in (0, 1):
            q = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        eta = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        while eta == 0:
            eta = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        mu = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        e = build_e(q, eta, mu)
        ok = (e(q) - eta, e(1) - 1, e.deriv_at(1) - mu) == (0, 0, 0)
        yield None if ok else f"residual at q={q}, eta={eta}, mu={mu}"


def _specialization(rng: random.Random) -> Checks:
    """Specialization is multiplicative: spec(ab) = spec(a) spec(b) in the
    concrete algebra, across >= 5 sample points."""
    params = random_params(rng, 2, 2)
    etas = [Fraction(3), Fraction(5, 2)]
    mus = [Fraction(1), Fraction(1, 2)]
    e_polys = build_e_family(Fraction(2), etas, mus)
    algebras = [SpecializedAlgebra(params, lam, e_polys) for lam in SPECIALIZATION_POINTS]
    for _ in range(SPECIALIZATION_PAIRS):
        a, b = random_weyl(rng, params), random_weyl(rng, params)
        ab = a * b
        for alg in algebras:
            ok = alg.specialize(ab) == alg.mul(alg.specialize(a), alg.specialize(b))
            yield None if ok else f"failed at lambda={alg.lam}"


def _defining_relations(params: WeylParams):
    """The rescaled presentation's defining relations, as (scalar, word) lists."""
    for j in range(1, params.n + 1):
        for i in range(1, j):
            lam_ij, lam_ji = params.lam_scalar(i, j), params.lam_scalar(j, i)
            qi = params.q_scalar(i)
            yield [(1, f"y{j}*y{i}"), (-lam_ji, f"y{i}*y{j}")]
            yield [(1, f"y{j}*x{i}"), (-lam_ij, f"x{i}*y{j}")]
            yield [(1, f"x{j}*y{i}"), (-(qi * lam_ij), f"y{i}*x{j}")]
            yield [(qi * lam_ij, f"x{j}*x{i}"), (-1, f"x{i}*x{j}")]
        yield [(1, f"x{j}*y{j}"), (-params.q_scalar(j), f"y{j}*x{j}"), (-1, f"z{j - 1}")]


def _rescaling_relations(rng: random.Random) -> Checks:
    """Images of the defining relations under the generator rescaling
    normalize to zero, n = 1..3: each word is the same on the rescaled and
    the plain engine through y_i = (q_i - 1) Y_i, denominators cleared, and
    the plain words sum to zero over the relation's common denominator."""
    for n in range(1, 4):
        params = random_params(rng, n, 2)
        # prod(map(pow, g, e)) is prod_i (q_i - 1)^{e_i}
        g = [params.q_scalar(i) - 1 for i in range(1, n + 1)]
        for rel in _defining_relations(params):
            denom = [max(w.count(f"y{i}") for _, w in rel) for i in range(1, n + 1)]
            image, same = WeylElement.zero(params), True
            for c, word in rel:
                y, node = [word.count(f"y{i}") for i in range(1, n + 1)], parse_expr(word)
                rescaled, plain = eval_rescaled(node, params), eval_weyl(node, params)
                same &= ({m: a * prod(map(pow, g, y)) for m, a in rescaled.terms}
                         == {m: a * prod(map(pow, g, m[::2])) for m, a in plain.terms})
                image += plain.scale(c * prod(map(pow, g, vec_sub(denom, y))))
            yield None if same and not image else f"nonzero image at n={n}"


def _quantum_plane(_rng: random.Random) -> Checks:
    """The two-generator demo: skew relation and classical bracket."""
    yield None if relation_holds() else "relation fails"
    bracket = semiclassical_bracket_xy()
    yield None if bracket == {(1, 1): MuPoly.variable(1, 0)} else "bracket differs"
    # with e_1 = t the derivative symbol takes the value 1: {x, y} = x y
    numeric = {m: d.subs([Fraction(1)]) for m, d in bracket.items()}
    yield None if numeric == {(1, 1): Fraction(1)} else "numeric bracket differs"


def _torus_relations_ideal(rng: random.Random) -> Checks:
    """Every tabulated torus commutation holds exactly in the algebra (each
    residue is 0, which puts it in the stratum's one-sided ideal), n = 1..3."""
    for n in range(1, 4):
        params = random_params(rng, n, 2)
        for T in enumerate_admissible(n):
            yield None if check_torus_relations(params, T) else f"n={n} T={T}"


@dataclass(frozen=True)
class Suite:
    checks: Callable[[random.Random], Checks]
    seed_offset: int  # the suite draws from random.Random(seed + seed_offset)
    pass_detail: str  # the detail reported when every check holds


SUITES: dict[str, Suite] = {
    "pbw-associativity": Suite(_pbw_associativity, 0, f"{PBW_TRIPLES} random triples"),
    "z-relations-quantum": Suite(
        partial(_z_relations, _z_table_cases), 1, "n=1..4, all families"
    ),
    "semiclassical-consistency": Suite(
        _semiclassical_consistency, 2, f"{SEMICLASSICAL_PAIRS} random pairs"
    ),
    "bracket-closed-forms": Suite(_bracket_closed_forms, 3, "all generator pairs, n=1..4"),
    "jacobi": Suite(_jacobi, 4, f"{JACOBI_TRIPLES} random triples"),
    "z-relations-poisson": Suite(
        partial(_z_relations, _poisson_z_table_cases), 5, "n=1..4, all families"
    ),
    # 2 + 6 + 20 + 68 admissible sets, the counts admissible-counts freezes
    "torus-derivative-link": Suite(_torus_derivative_link, 6, "96 strata over n=1..4"),
    "center-lattices": Suite(_center_lattices, 7, "n=1..3, exhaustive box oracle"),
    "admissible-counts": Suite(
        _admissible_counts, 0, "n=1..4 vs brute force, frozen 2/6/20/68"
    ),
    "interpolation": Suite(_interpolation, 8, f"{INTERPOLATION_TARGETS} random targets"),
    "specialization": Suite(
        _specialization,
        9,
        f"{SPECIALIZATION_PAIRS} pairs x {len(SPECIALIZATION_POINTS)} sample points",
    ),
    "rescaling-relations": Suite(_rescaling_relations, 10, "all defining relations, n=1..3"),
    "quantum-plane": Suite(_quantum_plane, 0, "relation and limit bracket"),
    "torus-relations-ideal": Suite(_torus_relations_ideal, 11, "all strata, n=1..3"),
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Run one suite: count its checks up to the first failure."""
    suite = SUITES[name]
    checks = 0
    for failure in suite.checks(random.Random(seed + suite.seed_offset)):
        if failure is not None:
            return SuiteResult(name, False, checks, failure)
        checks += 1
    return SuiteResult(name, True, checks, suite.pass_detail)


ALL_SUITES: dict[str, Callable[..., SuiteResult]] = {
    name: partial(run_suite, name) for name in SUITES
}


def run_suites(
    names: Sequence[str] | None = None, seed: int = DEFAULT_SEED
) -> list[SuiteResult]:
    chosen = list(SUITES) if names is None else list(names)
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return [run_suite(name, seed) for name in chosen]
