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
the bracket of two monomials is one bilinear form in their exponents, which
:func:`pb_bracket` carries as one int with a signed field per mu_k.

The map ``gamma1`` evaluates every quantized coefficient at the classical
point, and ``semiclassical_bracket`` realizes {gamma1(a), gamma1(b)} as the
exact (t-1)-limit of the commutator, giving two independent routes to the
same bracket.
"""

from __future__ import annotations

import math
from operator import add, lshift

from .scalars import MuPoly, _coefficient, exact_quotients, vec_add, vec_neg
from .weyl import MaltsiniotisElement, PbwElement, WeylElement, WeylParams, wa_commutator


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

    By the Leibniz rule, as (p, q) = (x_i, y_i) adds (s_i . mu) z_{i-1} to
    the entry (F_pq . mu) g_p g_q of :func:`_gen_bracket` and (y_i, x_i)
    subtracts it, with s_i = F_{x_i y_i} and d_i = m_{x_i} m'_{y_i} - m_{y_i} m'_{x_i}:

        {m, m'} = (sum_{p,q} m_p m'_q F_pq . mu) m m'
                  + sum_i d_i (s_i . mu) (m m' / (y_i x_i)) z_{i-1}.

    Each integer form is one int sum_k f_k W^k of r signed fields, W = 2^bits.
    The mu's are Poisson constants, so {a, b} = sum mu^(va + vb) {a_va, b_vb},
    a_va the part of a at mu-exponent va (all of a if its coefficients are
    constant): each result monomial sums one int per v = va + vb, numerators
    over the operands' common denominator times the forms landing there,
    field k for mu^(v + e_k), exact while |f| < W/2.  A term pair lands on a
    monomial at most once (m m', m m' / (y_i x_i), that times y_k x_k, k < i,
    differ), with entries at most deg m deg m' M, as sum_{p,q} m_p m'_q =
    deg m deg m' >= |d_i| and M = ``params.max_form_entry``.  So a field and
    any partial sum is at most B = N_a N_b M, N the sum over an operand's
    terms of |numerator| deg m, and W/2 = 2^bitlen(B) > B.
    """
    if type(a) is not PoissonElement or type(b) is not PoissonElement:
        raise TypeError(f"no Poisson bracket of a {type(a).__name__} and a {type(b).__name__}")
    a._check(b)
    params, ops = a.params, []
    r, memo = params.r, params.poisson_brackets
    den = math.lcm(*[k.denominator for x in (a, b) for _, c in x.terms for _, k in c.terms])
    for x in (a, b):  # its terms with their (slot, exponent) pairs; by v, [(term, numerator)]
        terms, slices, norm = [], {}, 0
        for m, c in x.terms:
            if sup := [(p, e) for p, e in enumerate(m) if e]:  # a constant brackets to 0
                for v, k in c.terms:
                    norm += abs(k := k.numerator * (den // k.denominator)) * sum(m)
                    slices.setdefault(v, []).append((len(terms), k))
                terms.append((m, sup))
        ops.append((terms, slices, norm))
    (ta, sa, na), (tb, sb, nb) = ops
    bits = (na * nb * params.max_form_entry).bit_length() + 1
    shifts, packed = range(0, bits * r, bits), {}

    def form(p, q):  # F_pq as one int
        if (f := packed.get((p, q))) is None:
            v = memo.get((p, q)) or memo.setdefault((p, q), _gen_bracket(params, p, q))
            f = packed[p, q] = sum(map(lshift, v, shifts))
        return f

    ids, lands = {}, []  # result monomial -> its index; lands[ia][ib]: {m, m'} as [(index, form)]
    for ma, sup in ta:
        rows: dict = {}  # slot q -> sum_p m_p F_pq
        lands.append(row := [])
        for mb, occ in tb:
            mm, f, got = tuple(map(add, ma, mb)), 0, []
            for q, e in occ:
                if (w := rows.get(q)) is None:
                    w = rows[q] = sum([ep * form(p, q) for p, ep in sup])
                f += e * w
                if q & 1 and mb[q - 1]:  # pair q // 2 was met at its y slot
                    continue
                if d := ma[(y := q & -2) + 1] * mb[y] - ma[y] * mb[y + 1]:
                    s_i, low = d * form(y + 1, y), mm[:y] + (mm[y] - 1, mm[y + 1] - 1) + mm[y + 2:]
                    got += [(ids.setdefault(m, len(ids)), s_i) for m in [low] + [
                        low[:j] + (low[j] + 1, low[j + 1] + 1) + low[j + 2:]
                        for j in range(0, y, 2)]]  # m m' z_{i-1} / (y_i x_i)
            if f:
                got.append((ids.setdefault(mm, len(ids)), f))
            row.append(got)
    if not ids:  # nothing lands
        return PoissonElement._canonical(params, ())
    accs: dict = {}  # v -> {monomial index: numerators times forms}
    for va, ka_list in sa.items():
        for vb, kb_list in sb.items():
            acc = accs.setdefault(tuple(map(add, va, vb)), {})
            for ia, ka in ka_list:
                for ib, kb in kb_list:
                    for i, f in lands[ia][ib]:
                        acc[i] = acc.get(i, 0) + ka * kb * f
    half, mask, den = 1 << (bits - 1), (1 << bits) - 1, den * den
    offset = half * ((1 << bits * r) - 1) // mask  # W/2 in every field: each a base-W digit
    out: dict = {}  # mu-exponent -> {monomial index: numerator}
    for v, acc in accs.items():  # mu^(v + e_k) at shift bits * k
        into = [(out.setdefault(v[:k] + (v[k] + 1,) + v[k + 1:], {}), bits * k) for k in range(r)]
        for i, x in acc.items():
            x += offset
            for t, s in into:
                t[i] = t.get(i, 0) + ((x >> s) & mask) - half
    exact = exact_quotients(out, den)  # each distinct numerator divided once
    coeffs: list = [[] for _ in ids]  # per monomial, its (mu-exponent, coefficient) pairs
    for e in sorted(out):
        for i, c in out[e].items():
            if c:
                coeffs[i].append((e, exact.get(c, c)))
    return PoissonElement._canonical(params, PoissonElement._order(
        [(m, MuPoly._canonical(r, cs)) for m, cs in zip(ids, coeffs) if cs]))  # cancelled ones out


def gamma1(a: WeylElement) -> PoissonElement:
    """Classical limit map: same monomials, coefficients evaluated at t=1.
    Built as stored: a's monomials in order, less those whose value at t=1
    (``eval_one``, the sum of the eta-coefficients) is 0, in stored form."""
    if type(a) is not WeylElement:  # a rescaled Y_i = (q_i - 1)^{-1} y_i has no limit
        raise TypeError(f"gamma1 takes a WeylElement, not a {type(a).__name__}")
    r = a.params.r
    one = (0,) * r
    return PoissonElement._canonical(a.params, [
        (m, MuPoly._canonical(r, [(one, _coefficient(v))])) for m, c in a.terms
        if (v := sum([k for _, k in c.terms]))])


def semiclassical_bracket(a: WeylElement, b: WeylElement) -> PoissonElement:
    """{gamma1(a), gamma1(b)} computed as the exact (t-1)-limit of ab - ba,
    for quantized or quantum-plane elements of one class.

    Both operands are first collapsed to their values at eta = 1, each
    coefficient replaced by the constant ``eval_one`` gives, through the
    class's validating constructor (not ``gamma1``'s direct build, so the
    self-checks that compare the two routes compare two computations).
    That leaves the limit as it is: scalars are central, so
    ab - ba = sum alpha_m beta_m' [m, m'].  At eta = 1 the algebra is
    commutative, so every coefficient c of [m, m'] vanishes there, and the
    limit of alpha beta c / (t - 1), the derivative at 1, is
    alpha(1) beta(1) times that of c / (t - 1).  The collapsed operands
    still go through the engine's commutator and ``limit_div``, which checks
    that each coefficient vanishes at 1, and through nothing of
    ``pb_bracket``."""
    if MaltsiniotisElement in (type(a), type(b)):
        raise TypeError("semiclassical_bracket takes no MaltsiniotisElement")
    if type(b) is type(a) and hasattr(a, "_engine"):  # else wa_commutator raises its error
        a = type(a)(a.params, [(m, c.eval_one()) for m, c in a.terms])
        b = type(b)(b.params, [(m, c.eval_one()) for m, c in b.terms])
    comm = wa_commutator(a, b)
    return PoissonElement._from_sums(a.params, {m: c.limit_div() for m, c in comm.terms})


def jacobiator(a: PoissonElement, b: PoissonElement, c: PoissonElement) -> PoissonElement:
    """{a,{b,c}} + {b,{c,a}} + {c,{a,b}}; identically zero for a Poisson bracket."""
    return (
        pb_bracket(a, pb_bracket(b, c))
        + pb_bracket(b, pb_bracket(c, a))
        + pb_bracket(c, pb_bracket(a, b))
    )
