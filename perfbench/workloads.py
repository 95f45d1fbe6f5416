"""The four workloads: seeded inputs, the timed operation, and the checks.

Inputs are plain data (exponent tuples, coefficients, strings) made in
set-up from the seed.  Each operation builds its own fresh instance from
them and returns results that hold no reference to that instance, so that
what stays in memory after an operation is what the library itself keeps
(its module-level caches), not what the benchmark holds for the checks.

Each ``build_*`` function imports qweyl itself, so that the benchmark's
set-up (which re-imports the package several times to time it) binds the
module objects that the timed operations then use.  Operations reach
library functions through module attributes (``qw.pb_bracket``), never
through names bound at set-up, so that the traced run's wrappers see every
call.  The checks run after the timed loop and compare against independent
computations or required properties, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import oracle

COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))


def random_instance(rng: random.Random, n: int, r: int):
    """Exponent data (qexp, lexp) of a random instance: every entry of s_i
    and of L_ij (i != j) drawn from {-2, -1, 1, 2}, L antisymmetric.

    Nonzero entries keep the cost of one instance close to that of another,
    so that a run's median depends little on which instances the seed drew.
    """

    def vec():
        return tuple(rng.choice((-2, -1, 1, 2)) for _ in range(r))

    qexp = [vec() for _ in range(n)]
    lexp = [[(0,) * r for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = vec()
            lexp[i][j] = v
            lexp[j][i] = tuple(-e for e in v)
    return tuple(qexp), tuple(tuple(row) for row in lexp)


def random_monomials(rng, n, count, degrees):
    """``count`` distinct PBW exponent tuples with degrees drawn from ``degrees``."""
    seen = {}
    while len(seen) < count:
        m = [0] * (2 * n)
        for _ in range(rng.choice(degrees)):
            m[rng.randrange(2 * n)] += 1
        seen.setdefault(tuple(m), None)
    return list(seen)


class Workload:
    """A fixed list of ``len(inputs)`` operations and their checks."""

    def __init__(self, inputs, op, check, keep=None):
        self.inputs = inputs
        self._op = op
        self._check = check
        self._keep = keep

    def __len__(self):
        return len(self.inputs)

    def run(self, i):
        return self._op(self.inputs[i])

    def keep(self, i, result):
        """What of the result of op ``i`` the checks need; called after the
        timing stops, so that the benchmark does not hold whole results in
        memory."""
        return result if self._keep is None else self._keep(i, result)

    def check(self, results) -> list[str]:
        """Error messages for every check that failed (empty when correct).

        ``results[i]`` is None for an operation that raised; it is skipped.
        """
        errors = []
        for i, res in enumerate(results):
            if res is not None:
                errors += [f"op {i}: {e}" for e in self._check(i, self.inputs[i], res)]
        return errors


# -- products -------------------------------------------------------------------

SMALL_TERMS = 3


def build_products(seed: int, count: int) -> Workload:
    """Per operation a fresh n = 3, r = 2 instance and three products on it.

    ``s**3`` for a combination s of all six generators with random
    coefficients; x2^a x3^b * y2^a y3^b, dense in same-index pairs, for
    (a, b) = (2, 2), (3, 1) and (1, 3); and a product of two random 3-term
    elements of degree <= 2, small enough for the word-rewriting oracle.
    Every operation has the same make-up, so that operations cost about
    the same.  The engine's generator cache starts empty and
    fills within the operation.  The checks compare every product at t = 1
    with the commutative product, and the small one with the oracle.
    """
    from qweyl import QTScalar, WeylElement, WeylParams, gamma1

    rng = random.Random(f"products-{seed}")

    def small():
        return [((m, ((rng.randint(-1, 1), rng.randint(-1, 1)), rng.choice(COEFFS))))
                for m in random_monomials(rng, 3, SMALL_TERMS, (0, 1, 2))]

    inputs = []
    for _ in range(count):
        inst = random_instance(rng, 3, 2)
        coeffs = [rng.choice(COEFFS) for _ in range(6)]
        pairs = [((0, 0, 0, a, 0, b), rng.choice(COEFFS), (0, 0, a, 0, b, 0), rng.choice(COEFFS))
                 for a, b in ((2, 2), (3, 1), (1, 3))]
        inputs.append((inst, coeffs, pairs, small(), small()))

    def elements(inp):
        (qexp, lexp), coeffs, pairs, sa, sb = inp
        p = WeylParams(3, 2, qexp, lexp)
        s = WeylElement.zero(p)
        for k, c in enumerate(coeffs):
            s = s + WeylElement.generator(p, "yx"[k % 2], k // 2 + 1) * c
        sides = [(WeylElement.monomial(p, ml, cl), WeylElement.monomial(p, mr, cr))
                 for ml, cl, mr, cr in pairs]
        a, b = (WeylElement(p, [(m, QTScalar.monomial(v, c)) for m, (v, c) in t])
                for t in (sa, sb))
        return p, s, sides, a, b

    def op(inp):
        _, s, sides, a, b = elements(inp)
        return s ** 3, [left * right for left, right in sides], a * b

    def at_one(terms):
        """Nonzero coefficients at t = 1, summed from the eta-monomial terms."""
        return {m: v for m, coeff in terms if (v := sum(c for _, c in coeff.terms))}

    def keep(i, res):
        cube, pairs, prod = res
        return (at_one(cube.terms), [at_one(pair.terms) for pair in pairs],
                {m: dict(c.terms) for m, c in prod.terms})

    def commutative(e):
        return {m: c.constant_part() for m, c in e.terms}

    def check(i, inp, res):
        p, s, sides, a, b = elements(inp)
        cube, pairs, prod = res
        errors = []
        gs = gamma1(s)
        if cube != commutative(gs * gs * gs):
            errors.append("gamma1(s^3) != gamma1(s)^3")
        for pair, (left, right) in zip(pairs, sides):
            if pair != commutative(gamma1(left) * gamma1(right)):
                errors.append("gamma1(l*r) != gamma1(l)*gamma1(r)")
        ref = oracle.naive_product(
            p.n, p.r, p.qexp, p.lexp,
            [(m, dict(c.terms)) for m, c in a.terms],
            [(m, dict(c.terms)) for m, c in b.terms],
        )
        if prod != ref:
            errors.append("a*b differs from the word-rewriting oracle")
        return errors

    return Workload(inputs, op, check, keep)


# -- brackets -------------------------------------------------------------------

BRACKET_CHECK_EVERY = 10


def build_brackets(seed: int, count: int) -> Workload:
    """Per operation a fresh n = 3, r = 2 instance and {a, b} with a of 12
    terms of degree 1..3 and b of 8 terms of degree 1..2, rational
    coefficients.

    Every result is checked against the degree bound deg a + deg b; every
    tenth is kept whole and checked for antisymmetry, for the Leibniz rule
    against a one-term c, and against the (t-1)-limit of the commutator of
    the constant-coefficient lifts (together about four brackets' work).
    """
    import qweyl as qw
    from qweyl import PoissonElement, WeylElement, WeylParams, semiclassical_bracket

    rng = random.Random(f"brackets-{seed}")

    def terms(count, degrees):
        return [(m, rng.choice(COEFFS)) for m in random_monomials(rng, 3, count, degrees)]

    inputs = [(random_instance(rng, 3, 2), terms(12, (1, 2, 3)), terms(8, (1, 2)), terms(1, (1,)))
              for _ in range(count)]

    def op(inp):
        (qexp, lexp), ta, tb, _ = inp
        p = WeylParams(3, 2, qexp, lexp)
        return qw.pb_bracket(PoissonElement(p, ta), PoissonElement(p, tb))

    def keep(i, res):
        return res.terms if i % BRACKET_CHECK_EVERY == 0 else res.degree()

    def check(i, inp, res):
        (qexp, lexp), ta, tb, tc = inp
        bound = max(sum(m) for m, _ in ta) + max(sum(m) for m, _ in tb)
        if isinstance(res, int):
            return [] if res <= bound else [f"degree {res} exceeds {bound}"]
        p = WeylParams(3, 2, qexp, lexp)
        a, b, c = (PoissonElement(p, t) for t in (ta, tb, tc))
        ab = PoissonElement(p, res)
        errors = []
        if qw.pb_bracket(b, a) != -ab:
            errors.append("antisymmetry fails")
        if qw.pb_bracket(a, b * c) != ab * c + b * qw.pb_bracket(a, c):
            errors.append("Leibniz rule fails")
        if semiclassical_bracket(WeylElement(p, ta), WeylElement(p, tb)) != ab:
            errors.append("pb_bracket differs from the (t-1)-limit of the commutator")
        if ab.degree() > bound:
            errors.append(f"degree {ab.degree()} exceeds {bound}")
        return errors

    return Workload(inputs, op, check, keep)


# -- strata ---------------------------------------------------------------------

STRATA_N = 3


def strata_instance(rng: random.Random, n: int):
    """Exponent data of a rank-1 instance with s_i in {1, 2} and L_ij in
    {-3, 3}.

    No commutation exponent of a stratum torus (L_ij, s_i + L_ij,
    s_j - L_ij, s_i) is then 0, so instances cost about the same; and with
    r = 1 every stratum with an odd number of generators has a nontrivial
    center (an odd antisymmetric matrix is singular), so the lattice
    checks see nonzero lattices.
    """
    qexp = tuple((rng.choice((1, 2)),) for _ in range(n))
    lexp = [[(0,)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice((-3, 3))
            lexp[i][j], lexp[j][i] = (v,), (-v,)
    return qexp, tuple(tuple(row) for row in lexp)


def build_strata(seed: int, count: int) -> Workload:
    """Per operation a fresh n = 3, r = 1 instance; for each of its
    admissible strata: the stratum report, the Poisson-side center lattice
    and the torus relations modulo the stratum ideal."""
    import qweyl as qw
    from qweyl import MuPoly, WeylParams, brute_force_admissible

    rng = random.Random(f"strata-{seed}")
    inputs = [strata_instance(rng, STRATA_N) for _ in range(count)]
    expected = len(brute_force_admissible(STRATA_N))

    def op(inst):
        p = WeylParams(STRATA_N, 1, *inst)
        out = []
        for T in qw.enumerate_admissible(STRATA_N):
            report = qw.stratum_report(p, T)
            pm = qw.torus_matrix_p(p, T)
            out.append((report, pm, qw.poisson_center_lattice(pm, p.r),
                        qw.check_torus_relations(p, T)))
        return out

    def check(i, inst, res):
        errors = []
        if len(res) != expected:
            errors.append(f"{len(res)} strata, brute force finds {expected}")
        for report, pm, plat, relations_ok in res:
            name = ",".join(report.markers) or "(empty)"
            qm, size = report.qmatrix, len(report.generators)
            if any(pm[i][j] != MuPoly.linear(qm[i][j]) for i in range(size) for j in range(size)):
                errors.append(f"{name}: pmatrix is not the linear form of qmatrix")
            if report.pmatrix != tuple(tuple(str(d) for d in row) for row in pm):
                errors.append(f"{name}: reported pmatrix differs from torus_matrix_p")
            if plat.basis != report.center_basis:
                errors.append(f"{name}: q-side and p-side center lattices differ")
            rows = [[qm[l][j][0] for j in range(size)] for l in range(size)]
            for u in report.center_basis:
                if any(sum(a * b for a, b in zip(row, u)) for row in rows):
                    errors.append(f"{name}: basis vector {u} does not solve the system")
            if size and report.center_rank != size - oracle.rational_rank(rows):
                errors.append(f"{name}: lattice rank is not size - rank of the system")
            if not oracle.is_saturated(report.center_basis):
                errors.append(f"{name}: the lattice misses integer solutions (not saturated)")
            if not relations_ok:
                errors.append(f"{name}: torus relations fail modulo the stratum ideal")
        return errors

    return Workload(inputs, op, check)


# -- cli ------------------------------------------------------------------------

CLI_N = 2  # the built-in config's instance: n = 2, r = 2
RECORD_KEYS = {"command", "instance", "result", "checks"}
ADMISSIBLE_KEYS = {"command", "n", "count", "result"}


def random_expr(rng: random.Random, with_y: bool) -> str:
    """A random expression of the CLI grammar on the built-in n = 2 instance.

    Two or three terms, each a product of one or two factors (generators,
    z's, eta monomials, rationals), and in three of ten expressions one
    more term, a squared sum of two generators; degree at most 3, so that
    sessions cost about the same.  Without y generators the expression is
    in the domain where the rescaling map clears every (q_i - 1)
    denominator.
    """
    gens = ["x1", "x2"] + (["y1", "y2"] if with_y else [])

    def factor():
        roll = rng.random()
        if roll < 0.15:
            return f"eta^[{rng.randint(-2, 2)},{rng.randint(-2, 2)}]"
        if roll < 0.25:
            return rng.choice(["2", "3/4", "5", "1/3"])
        if roll < 0.45:
            return rng.choice(["z0", "z1", "z2"])
        return rng.choice(gens)

    terms = ["*".join(factor() for _ in range(rng.randint(1, 2)))
             for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.3:
        terms.append(f"({rng.choice(gens)} {rng.choice('+-')} {rng.choice(gens)})^2")
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - "]) + t
    return text


def build_cli(seed: int, count: int) -> Workload:
    """Per operation one session of nine ``qweyl --json`` commands on the
    built-in config, run in-process with stdout captured.

    The printed results of ``nf``, ``comm`` and ``limit`` are read back by
    the grammar reader in oracle.py, straightened by its word rewriting and
    compared with the same done to the inputs: this covers the library's
    parser, evaluator, engine and printer with code they do not share.
    """
    import qweyl.cli as qcli
    from qweyl import brute_force_admissible

    rng = random.Random(f"cli-{seed}")
    specs = oracle.admissible_specs(CLI_N)
    inputs = []
    for _ in range(count):
        a, b = random_expr(rng, True), random_expr(rng, True)
        spec = rng.choice(specs)
        inputs.append([
            ["nf", random_expr(rng, True)],
            ["comm", a, b],
            ["bracket", a, b],
            ["limit", random_expr(rng, True)],
            ["scl", a, b],
            ["stratum", spec],
            ["center", spec],
            ["maltsiniotis", random_expr(rng, False)],
            ["admissible", str(rng.randint(1, 3))],
        ])
    admissible_counts = {k: len(brute_force_admissible(k)) for k in (1, 2, 3)}
    params = qcli.params_from_config(qcli.DEFAULT_CONFIG)

    def reference(text):
        """Normal form of an expression read and straightened by oracle.py."""
        free = oracle.free_polynomial(text, params.n, params.r)
        return oracle.straighten(params.n, params.r, params.qexp, params.lexp, free)

    def at_one(nf):
        return {m: v for m, c in nf.items() if (v := sum(c.values()))}

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qcli.main(["--json", *argv])
        return code, buf.getvalue()

    def op(session):
        return [call(argv) for argv in session]

    def check(i, session, res):
        errors = []
        records = {}
        for argv, (code, text) in zip(session, res):
            if code != 0:
                errors.append(f"{argv[0]} exited {code}")
                continue
            record = json.loads(text)
            keys = ADMISSIBLE_KEYS if argv[0] == "admissible" else RECORD_KEYS
            if set(record) != keys or record["command"] != argv[0]:
                errors.append(f"{argv[0]}: record keys {sorted(record)}")
            records[argv[0]] = record
        if errors:
            return errors
        if records["bracket"]["result"] != records["scl"]["result"]:
            errors.append("bracket and scl disagree")
        if not all(c["passed"] for c in records["scl"]["checks"]):
            errors.append("scl reports an inconsistency")
        nf = records["nf"]["result"]
        if reference(nf) != reference(session[0][1]):
            errors.append(f"nf printed {nf!r}, which is not the input's element")
        _, a, b = session[1]
        if reference(records["comm"]["result"]) != reference(f"({a})*({b}) - ({b})*({a})"):
            errors.append("comm differs from the oracle's ab - ba")
        if at_one(reference(records["limit"]["result"])) != at_one(reference(session[3][1])):
            errors.append("limit differs from the oracle's normal form at t = 1")
        # "--" because a normal form may begin with "-", which argparse
        # would otherwise read as an option
        code, text = call(["nf", "--", nf])
        if code != 0 or json.loads(text)["result"] != nf:
            errors.append(f"nf of the printed normal form {nf!r} does not give it back")
        adm = records["admissible"]
        if adm["count"] != admissible_counts[adm["n"]] or len(adm["result"]) != adm["count"]:
            errors.append("admissible count differs from brute force")
        stratum, center = records["stratum"]["result"], records["center"]["result"]
        if stratum["center_basis"] != center["basis"] or stratum["center_rank"] != center["rank"]:
            errors.append("stratum and center disagree on the center lattice")
        return errors

    return Workload(inputs, op, check)


BUILDERS = {
    "products": build_products,
    "brackets": build_brackets,
    "strata": build_strata,
    "cli": build_cli,
}
