"""The Poisson limit algebra and the semiclassical machinery.

The limit algebra is the commutative polynomial ring over Q[mu] in the same
generators y_1, x_1, ..., y_n, x_n.  Its bracket is the biderivation fixed
on generators by (i < j):

    {y_j, y_i} =  (L_ji . mu) y_i y_j
    {y_j, x_i} =  (L_ij . mu) x_i y_j
    {x_j, y_i} =  ((s_i + L_ij) . mu) y_i x_j
    {x_j, x_i} = -((s_i + L_ij) . mu) x_i x_j
    {x_i, y_i} =  (s_i . mu) (1 + sum_{k<=i} y_k x_k)

Every line but the last reads (F_pq . mu) g_p g_q with F_pq a vector of
ints, and the last is (s_i . mu)(y_i x_i + z_{i-1}), so by the Leibniz rule
the bracket of two monomials is one bilinear form in their exponents, the
closed form of :func:`pb_bracket`.

The map ``gamma1`` evaluates every quantized coefficient at the classical
point, and ``semiclassical_bracket`` realizes {gamma1(a), gamma1(b)} as the
exact (t-1)-limit of the commutator, giving two independent routes to the
same bracket.
"""

from __future__ import annotations

from .scalars import MuPoly, vec_add, vec_neg
from .weyl import (
    PbwElement, WeylElement, WeylParams, _add_shifted, _Decoder, _pack_terms, _unpack,
)


class PoissonElement(PbwElement):
    """Commutative polynomial with Q[mu] coefficients."""

    __slots__ = ()
    scalar_type = MuPoly


p_z = PoissonElement.z


def _gen_bracket(params: WeylParams, p: int, q: int) -> tuple:
    """F_pq, the r-tuple of ints with {g_p, g_q} = (F_pq . mu) g_p g_q for
    the generators at exponent slots p and q, by the five formulas above:
    for {x_i, y_i} it is s_i, and :func:`pb_bracket` adds the z_{i-1} part.
    This is what a ``params.poisson_brackets`` entry holds."""
    if p == q:
        return (0,) * params.r
    a, b = p // 2 + 1, q // 2 + 1
    akind = "y" if p % 2 == 0 else "x"
    bkind = "y" if q % 2 == 0 else "x"
    i, j = min(a, b), max(a, b)
    if a == b:
        # {x_i, y_i} = (s_i . mu) (y_i x_i + z_{i-1})
        return params.s(a) if akind == "x" else vec_neg(params.s(a))
    if akind == "y" and bkind == "y":
        return params.L(a, b)
    if akind == "x" and bkind == "x":
        form = vec_add(params.s(i), params.L(i, j))
        return vec_neg(form) if a > b else form
    if akind == "y":
        # {y_a, x_b}: for a > b this is the (L_ij . mu) x_i y_j line;
        # for a < b it is minus the {x_j, y_i} line.
        return params.L(b, a) if a > b else vec_neg(vec_add(params.s(a), params.L(a, b)))
    return vec_add(params.s(b), params.L(b, a)) if a > b else vec_neg(params.L(a, b))


def pb_bracket(a: PoissonElement, b: PoissonElement) -> PoissonElement:
    """The biderivation extending the generator table, in closed form.

    By the Leibniz rule {m, m'} = sum_{p,q} m_p m'_q (m/g_p)(m'/g_q) {g_p, g_q}
    on monomials, the mu symbols being Poisson constants.  Each table entry
    is (F_pq . mu) g_p g_q, except that (p, q) = (x_i, y_i) adds
    (s_i . mu) z_{i-1} and (y_i, x_i) subtracts it, so

        {m, m'} = (sum_{p,q} m_p m'_q F_pq . mu) m m'
                  + sum_i d_i (s_i . mu) (m m' / (y_i x_i)) z_{i-1},
        d_i = m_{x_i} m'_{y_i} - m_{y_i} m'_{x_i},

    with F_pq from :func:`_gen_bracket` for the slot pairs met and
    s_i = F_{x_i y_i}.  The bare brackets come first, with integer forms;
    only if one is nonzero are the coefficients packed as in
    :meth:`~qweyl.weyl.StraighteningEngine.mul_terms` (int numerators over
    each operand's common denominator, packed mu-exponents, one scalar per
    result monomial at the end).  A result entry is at most twice the
    operands' largest entry plus 1, and the fields hold it below W/2.
    """
    a._check(b)
    params = a.params
    r, memo = params.r, params.poisson_brackets

    def form(p, q):
        f = memo.get((p, q))
        if f is None:
            f = memo[(p, q)] = _gen_bracket(params, p, q)
        return f

    lands = []  # the bare brackets {m, m'}: (monomial, mu-form, index of m, index of m')
    occupied = [[(q, e) for q, e in enumerate(mb) if e] for mb, _ in b.terms]
    for ia, (ma, _) in enumerate(a.terms):
        sa = [(p, e) for p, e in enumerate(ma) if e]
        if not sa:  # a constant brackets to 0
            continue
        rows: dict = {}  # slot q -> sum_p m_p F_pq
        for ib, (mb, _) in enumerate(b.terms):
            f = [0] * r
            for q, eq in occupied[ib]:
                row = rows.get(q)
                if row is None:
                    row = [0] * r
                    for p, ep in sa:
                        row = [x + ep * y for x, y in zip(row, form(p, q))]
                    rows[q] = row
                f = [x + eq * y for x, y in zip(f, row)]
                i = q // 2
                if q % 2 and mb[q - 1]:  # pair i was met at its y_i slot
                    continue
                d = ma[2 * i + 1] * mb[2 * i] - ma[2 * i] * mb[2 * i + 1]
                if d:
                    s_i = [d * x for x in form(2 * i + 1, 2 * i)]
                    mm = vec_add(ma, mb)
                    low = mm[:2 * i] + (mm[2 * i] - 1, mm[2 * i + 1] - 1) + mm[2 * i + 2:]
                    lands.append((low, s_i, ia, ib))  # and low y_k x_k, k < i: m m' z_{i-1}
                    lands += [(low[:2 * k] + (low[2 * k] + 1, low[2 * k + 1] + 1) + low[2 * k + 2:],
                               s_i, ia, ib) for k in range(i)]
            if any(f):
                lands.append((vec_add(ma, mb), f, ia, ib))
    if not lands:
        return PoissonElement._from_sums(params, {})
    # n > 0, so r > 0: the largest mu-exponent entry of either operand
    top = max(map(max, [v for t in (a, b) for _, c in t.terms for v, _ in c.terms]))
    dec = _Decoder(r, (2 * top + 1).bit_length() + 1)
    (pa, da), (pb, db) = _pack_terms(a.terms, dec.encode), _pack_terms(b.terms, dec.encode)
    mus = [1 << s for s in dec.shifts]  # mu_1 .. mu_r, packed
    out: dict = {}  # monomial -> {packed mu-exponent: numerator}
    for mono, vec, ia, ib in lands:
        acc = out.setdefault(mono, {})
        ca = pa[ia][1]
        for u, k in zip(mus, vec):
            if k:
                for eb, nb in pb[ib][1].items():
                    _add_shifted(acc, ca, eb + u, k * nb)
    return PoissonElement._from_sums(params, _unpack(out, da * db, dec, MuPoly))


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
