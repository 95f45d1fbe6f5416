"""The Poisson limit algebra and the semiclassical machinery.

The limit algebra is the commutative polynomial ring over Q[mu] in the same
generators y_1, x_1, ..., y_n, x_n.  Its bracket is the biderivation fixed
on generators by (i < j):

    {y_j, y_i} =  (L_ji . mu) y_i y_j
    {y_j, x_i} =  (L_ij . mu) x_i y_j
    {x_j, y_i} =  ((s_i + L_ij) . mu) y_i x_j
    {x_j, x_i} = -((s_i + L_ij) . mu) x_i x_j
    {x_i, y_i} =  (s_i . mu) (1 + sum_{k<=i} y_k x_k)

The map ``gamma1`` evaluates every quantized coefficient at the classical
point, and ``semiclassical_bracket`` realizes {gamma1(a), gamma1(b)} as the
exact (t-1)-limit of the commutator, giving two independent routes to the
same bracket.
"""

from __future__ import annotations

from .scalars import MuPoly, add_term, divide_terms, vec_add
from .weyl import PbwElement, PbwMonomial, WeylElement, WeylParams, mono_key


class PoissonElement(PbwElement):
    """Commutative polynomial with Q[mu] coefficients."""

    __slots__ = ()
    scalar_type = MuPoly


p_z = PoissonElement.z


def _gen_bracket(params: WeylParams, p: int, q: int) -> PoissonElement:
    """Bracket of the generators sitting at exponent slots p and q."""
    if p == q:
        return PoissonElement.zero(params)
    a, b = p // 2 + 1, q // 2 + 1
    akind = "y" if p % 2 == 0 else "x"
    bkind = "y" if q % 2 == 0 else "x"
    if a == b:
        # {x_i, y_i} = (s_i . mu) z_i
        base = p_z(params, a).scale(MuPoly.linear(params.s(a)))
        return base if akind == "x" else -base
    # products below are commutative monomials g_a * g_b
    prod = PoissonElement.generator(params, akind, a) * PoissonElement.generator(
        params, bkind, b
    )
    i, j = min(a, b), max(a, b)
    if akind == "y" and bkind == "y":
        form = MuPoly.linear(params.L(a, b))
    elif akind == "x" and bkind == "x":
        form = MuPoly.linear(vec_add(params.s(i), params.L(i, j)))
        if a > b:
            form = -form
    elif akind == "y" and bkind == "x":
        # {y_a, x_b}: for a > b this is the (L_ij . mu) x_i y_j line;
        # for a < b it is minus the {x_j, y_i} line.
        form = (
            MuPoly.linear(params.L(b, a))
            if a > b
            else -MuPoly.linear(vec_add(params.s(a), params.L(a, b)))
        )
    else:  # akind == "x", bkind == "y"
        form = (
            MuPoly.linear(vec_add(params.s(b), params.L(b, a)))
            if a > b
            else -MuPoly.linear(params.L(a, b))
        )
    return prod.scale(form)


def pb_bracket(a: PoissonElement, b: PoissonElement) -> PoissonElement:
    """The biderivation extending the generator table.

    For monomials the Leibniz rule collapses to the bivector formula
    {m, m'} = sum_{p,q} m_p m'_q (m/g_p)(m'/g_q) {g_p, g_q}; the mu symbols
    are Poisson constants, so coefficients just multiply through.
    """
    a._check(b)
    params = a.params
    memo = params.poisson_brackets
    out: dict[PbwMonomial, MuPoly] = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            coeff = ca * cb
            for p in range(2 * params.n):
                if not ma[p]:
                    continue
                for q in range(2 * params.n):
                    if not mb[q]:
                        continue
                    table = memo.get((p, q))
                    if table is None:
                        table = memo[(p, q)] = _gen_bracket(params, p, q)
                    if not table:
                        continue
                    la = list(ma)
                    la[p] -= 1
                    lb = list(mb)
                    lb[q] -= 1
                    rest = vec_add(tuple(la), tuple(lb))
                    c = coeff * ma[p] * mb[q]
                    for mt, ct in table.terms:
                        add_term(out, vec_add(rest, mt), c * ct)
    return PoissonElement(params, out)


def gamma1(a: WeylElement) -> PoissonElement:
    """Classical limit map: same monomials, coefficients evaluated at t=1."""
    params = a.params
    return PoissonElement(
        params,
        [(m, MuPoly.constant(params.r, c.eval_one())) for m, c in a.terms],
    )


def semiclassical_bracket(a: WeylElement, b: WeylElement) -> PoissonElement:
    """{gamma1(a), gamma1(b)} computed as the exact (t-1)-limit of ab - ba."""
    a._check(b)
    comm = a * b - b * a
    for m, c in comm.terms:
        if c.eval_one() != 0:
            raise RuntimeError(
                "commutator coefficient does not vanish at t=1; "
                "core arithmetic bug"
            )
    return PoissonElement(a.params, [(m, c.limit_div()) for m, c in comm.terms])


def jacobiator(a: PoissonElement, b: PoissonElement, c: PoissonElement) -> PoissonElement:
    """{a,{b,c}} + {b,{c,a}} + {c,{a,b}}; identically zero for a Poisson bracket."""
    return (
        pb_bracket(a, pb_bracket(b, c))
        + pb_bracket(b, pb_bracket(c, a))
        + pb_bracket(c, pb_bracket(a, b))
    )


def pe_div_exact(a: PoissonElement, d: PoissonElement) -> PoissonElement:
    """Exact quotient a/d in the commutative algebra.

    Single-divisor multivariate division ordered by (degree, lex); the
    divisor must have an invertible (constant rational) leading coefficient,
    which holds for all divisors used here (they are monic in their top
    monomial).  Raises NotDivisibleError when the remainder is nonzero.
    """
    a._check(d)
    params = a.params
    if not d:
        raise ZeroDivisionError("division by the zero element")
    if not a:
        return a
    dlc = d.terms[-1][1]
    if not dlc.is_constant():
        raise ArithmeticError("divisor leading coefficient is not a rational")
    floor = (0,) * (2 * params.n)
    return PoissonElement(
        params, divide_terms(a, d, mono_key, 1 / dlc.constant_part(), floor)
    )
