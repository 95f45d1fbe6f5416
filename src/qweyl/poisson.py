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

from fractions import Fraction

from .scalars import MuPoly, add_term, divide_terms, vec_add
from .weyl import PbwElement, WeylElement, WeylParams, mono_key


class PoissonElement(PbwElement):
    """Commutative polynomial with Q[mu] coefficients."""

    __slots__ = ()
    scalar_type = MuPoly


p_z = PoissonElement.z


def _gen_bracket(params: WeylParams, p: int, q: int) -> tuple:
    """Bracket of the generators sitting at exponent slots p and q, as
    (monomial, mu-terms) pairs with integer coefficients; ``()`` for zero."""
    if p == q:
        return ()
    a, b = p // 2 + 1, q // 2 + 1
    akind = "y" if p % 2 == 0 else "x"
    bkind = "y" if q % 2 == 0 else "x"
    i, j = min(a, b), max(a, b)
    if a == b:
        # {x_i, y_i} = (s_i . mu) z_i
        form = MuPoly.linear(params.s(a))
        form = form if akind == "x" else -form
    elif akind == "y" and bkind == "y":
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
    # z_i's monomials, or the commutative monomial g_a * g_b
    monos = (
        [m for m, _ in p_z(params, a).terms] if a == b
        else [tuple(int(k in (p, q)) for k in range(2 * params.n))]
    )
    return tuple((m, form.terms) for m in monos) if form else ()


def pb_bracket(a: PoissonElement, b: PoissonElement) -> PoissonElement:
    """The biderivation extending the generator table.

    For monomials the Leibniz rule collapses to the bivector formula
    {m, m'} = sum_{p,q} m_p m'_q (m/g_p)(m'/g_q) {g_p, g_q}; the mu symbols
    are Poisson constants, so coefficients just multiply through.  Per pair
    of terms, {m, m'} is summed with integer coefficients first; it lands on
    m m' and, through the z_i, a few lower monomials, and the coefficient
    product multiplies in once per such monomial.  Each result coefficient
    is built once, at the end.
    """
    a._check(b)
    params = a.params
    memo = params.poisson_brackets
    slots = range(2 * params.n)
    out: dict = {}  # monomial -> {mu-vector: rational}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            bare: dict = {}  # monomial -> {mu-vector: int}, the bracket {ma, mb}
            for p in slots:
                if not ma[p]:
                    continue
                for q in slots:
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
                    rest = vec_add(la, lb)
                    k = ma[p] * mb[q]
                    for mt, mus in table:
                        acc = bare.setdefault(vec_add(rest, mt), {})
                        for v, c in mus:
                            add_term(acc, v, k * c)
            if not bare:
                continue
            coeff: dict = {}
            for va, x in ca.terms:
                for vb, y in cb.terms:
                    add_term(coeff, vec_add(va, vb), x * y)
            for m, mus in bare.items():
                acc = out.setdefault(m, {})
                for v, c in mus.items():
                    for w, d in coeff.items():
                        add_term(acc, vec_add(v, w), c * d)
    return PoissonElement._from_sums(
        params, {m: MuPoly._from_sums(params.r, s) for m, s in out.items()}
    )


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
        params, divide_terms(a, d, mono_key, Fraction(1, dlc.constant_part()), floor)
    )
