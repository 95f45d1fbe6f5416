"""The quantized Weyl algebra over the eta-monomial scalar ring.

Elements are stored in the ordered-monomial (PBW) basis
``y_1^{r_1} x_1^{s_1} ... y_n^{r_n} x_n^{s_n}``; multiplication straightens
arbitrary products back into that basis using the defining relations:

    y_j y_i = lam_ji y_i y_j                        (i < j)
    y_j x_i = lam_ij x_i y_j                        (i < j)
    x_j y_i = q_i lam_ij y_i x_j                    (i < j)
    x_j x_i = q_i^-1 lam_ij^-1 x_i x_j              (i < j)
    x_i y_i = q_i y_i x_i + (q_i - 1) z_{i-1}       z_i = 1 + sum_{k<=i} y_k x_k

with q_i = eta^{s_i} and lam_ij = eta^{L_ij} for an instance given by
exponent data (s_i, L_ij).  The same engine also runs with concrete rational
structure constants (see :mod:`qweyl.interp`).

The rescaled presentation, in Y_i = (q_i - 1)^{-1} y_i, has its own engine
(:class:`MaltsiniotisElement`); :func:`from_maltsiniotis` maps it back by
the library's one exact division, on packed numerators as the engine's.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .scalars import (
    ExpVec, QTScalar, TermMap, add_term, digit_limited, exact_quotients, vec_add, vec_neg,
)

PbwMonomial = tuple[int, ...]


class ParamsMismatchError(ValueError):
    """Elements from different algebra instances were combined."""


class LocalizationRequiredError(ArithmeticError):
    """A rescaled element does not clear its (q_i - 1) denominators."""


def pos_y(i: int) -> int:
    """Slot of y_i (1-based index) in the exponent tuple."""
    return 2 * (i - 1)


def pos_x(i: int) -> int:
    """Slot of x_i (1-based index) in the exponent tuple."""
    return 2 * (i - 1) + 1


class StraighteningEngine:
    """Rewriting of generator words into the ordered basis, on packed scalars.

    **Relations.**  ``swap[qp][pp]`` holds the structure constant c with
    ``g_qp g_pp = c g_pp g_qp`` for qp > pp, except the same-index slot
    (x_i, y_i): ``x_i^s y_i = q_i^s y_i x_i^s + f_s(q_i) z_{i-1} x_i^{s-1}``
    and ``z_k = z_{k-1} + g(q_k) y_k x_k``, z_0 = 1, with per-pair factors
    f_s = q^s - 1 and g = 1 in the quantized algebra, f_s = [s]_q = 1 + q
    + ... + q^{s-1} and g = q - 1 in the rescaled presentation, and f_s = 0
    in the quantum plane of :mod:`qweyl.quantum_plane`.

    Appending y_i to ``m = L y_i^r x_i^s`` (L on the pairs below i, nothing
    above x_i) is done in closed form.  Since z_{i-1} commutes with y_i and
    x_i,

        m y_i = q_i^s (m + e_{y_i}) + f_s(q_i) (L z_{i-1}) y_i^r x_i^{s-1}.

    ``L z_{i-1}`` unrolls ``L'B z_k = q_k^s (g(q_k) L' y_k^{r+1} x_k^{s+1}
    + (L' z_{k-1}) B)``, with ``B = y_k^r x_k^s`` the last pair of L (as 1
    + g f_s = q^s), into one loop over the pairs of L:

        L z_k = Q_1 L + sum_{j<=k} g(q_j) Q_j L^(j),

    ``Q_j = q_j^{s_j} ... q_k^{s_k}`` for the x-exponents s_l of L and
    ``L^(j)`` = L with y_j x_j added to pair j, so k + 1 distinct
    monomials, each taking g(q_j) from at most one pair.

    **The fold.**  ``_fold`` appends the blocks ``g_p^e`` of each right-hand
    term ``(m2, c2)`` to the left operand in slot order.  The first pass
    applies c2 in its add, which copies, as the next term reads the left
    operand again; the last adds straight into the product's one table, as
    a constant term does.  ``mul_terms`` folds once; ``q_commutators``
    folds ab and ba once each and subtracts eta^c ba, adding ``enc(c)`` to
    ba's packed exponents, in the fold it will not read again.  A block
    append is one pass per monomial: the swap constants ``c^t`` of the
    blocks ``g_u^t`` above g_p's pair multiply into one packed scalar,
    raised to the power e (a block swap), and ``g_p^e`` lands in one step;
    past the first pass, a trivial scalar moves over uncopied onto a key
    new to its table.  The exception is ``y_i^e`` under ``x_i^s``, s > 0:
    those monomials take e closed-form passes together, each adding into
    the next table, the last into the block's output, with the blocks above
    carried along, as no term of the rest times y_i reaches past pair i; a
    term whose x_i is used up lands the y_i's left.  The call's two tables,
    f_s(q_i) by s and ``L z_{i-1}`` by L, die with it: the engine keeps no
    memo across calls, its state fixed by its constants and its width.  Packed
    exponents decode through the memo of the engine's rank and width,
    shared by every engine in the process (``_decoder``).
    Termination: no method recurses.  A block append is one pass, and at
    most e closed-form passes, each one loop over the pairs below and the
    factors f_s and g, which are finite sums.

    **Packed scalars.**  The engine maps (ordered monomial, packed
    exponent) to a nonzero rational.  ``enc(v) = sum_k v_k W^(r-1-k)`` with
    ``W = 2^bits`` is linear, so multiplying eta-monomials is one ``int``
    addition; while every ``|v_k| < W/2`` it is injective, decodes as
    signed base-W digits and keeps the tuple order.  A structure constant
    is ``(enc(v), 1)`` in the formal algebra; a specialization
    (:mod:`qweyl.interp`) is an engine of rank 0 with constants
    ``(0, value)``.  A packed factor merges equal exponents, so q_i^s - 1
    is empty at a root of unity and no zero is stored.  ``mul_terms``
    scales each operand by the common denominator of its rationals, so the
    formal kernel works on ints, and builds one ``QTScalar`` per result
    monomial on exit (exponents sorted as packed ints, each distinct
    numerator divided once where den > 1), which an element holds as is.

    **Width.**  With M the largest |entry| of s_i, L_ij and s_i + L_ij,
    appending a generator to a monomial of degree d moves exponent entries
    by at most d*M.  The swap constants of the t letters above g_p's pair
    add at most t*M.  On the rest, of degree d - t, a landing adds nothing
    and the closed form adds s*M for ``q_i^s``; in its other term f_s adds
    s*M (q^s - 1) or (s - 1)*M ([s]_q), and ``L z_{i-1}`` deg(L)*M (one
    q_k^{s_k} per pair of L), plus M for g = q - 1, so (s + deg(L))*M either
    way, and s + deg(L) <= d - t.  No result term has degree above d + 1, as
    z_{i-1} has degree 2.  A block swap of ``g_p^e`` moves entries by
    e*t*M, at most what e single appends past the same t letters would, as
    e*t <= C(t + e, 2), and a closed-form pass is one single append.  So
    the fold of m2, followed from one left term m1, moves entries by at most
    ``M * D(D - 1)/2``, D = deg m1 + deg m2.  Each chain starts from one
    eta-term of m1's scalar times one of c2, with entries up to A + B when
    the operands' exponents have entries up to A and B.  Terms that meet at
    a monomial, in a pass or in the one table, add their coefficients, not
    their exponents, so each packed entry stays within the bound of the
    chain it came from, and ``mul_terms`` forms no entry beyond ``A + B + M
    * D(D - 1)/2``.  The fold of ba has the same bound and eta^c adds at
    most |c|, its largest |entry|, so ``q_commutators`` forms none beyond
    that bound plus |c|.  ``_pack`` widens W past twice that bound when
    needed, to at least twice its width, so that a run of products with
    growing degrees (the squarings of a power) widens only a logarithmic
    number of times; that re-packs the constants and never changes a
    result.
    """

    # the narrowest field; two fields of it share one 30-bit int digit
    MIN_BITS = 12
    # the most entries a decoder's memo holds, the engine layer's only memo
    MEMO_LIMIT = 1 << 14

    def __init__(self, n: int, rank: int, const, qexp, lexp,
                 closed=lambda s: ((s, 1), (0, -1)), zstep=((0, 1),)):
        """An engine of ``rank`` for exponent data s_i (``qexp``) and L_ij (``lexp``).

        ``const`` maps the exponent vector of a structure constant eta^v to the
        (vector of length ``rank``, rational) pair the engine keeps for it:
        ``(v, 1)`` in the formal algebra, ``((), eta^v at the point)`` in a
        specialization, which is an engine of rank 0.  ``closed(s)`` and
        ``zstep``, the factors f_s and g, are (power, int) pairs of
        polynomials in q_i."""
        swap = [[None] * (2 * n) for _ in range(2 * n)]
        for j in range(1, n + 1):
            for i in range(1, j):
                s_i, l_ij, l_ji = qexp[i - 1], lexp[i - 1][j - 1], lexp[j - 1][i - 1]
                swap[pos_y(j)][pos_y(i)] = const(l_ji)
                swap[pos_y(j)][pos_x(i)] = const(l_ij)
                swap[pos_x(j)][pos_y(i)] = const(vec_add(s_i, l_ij))
                swap[pos_x(j)][pos_x(i)] = const(vec_neg(vec_add(s_i, l_ij)))
        q_consts = [const(v) for v in qexp]
        self.n = n
        self.rank = rank
        self._consts = (q_consts, swap, zstep)
        self._closed = closed
        vecs = [v for v, _ in q_consts] + [c[0] for row in swap for c in row if c]
        self._growth = max([abs(x) for v in vecs for x in v], default=0)
        self._set_width(self.MIN_BITS)

    def _set_width(self, bits: int) -> None:
        self._half = 1 << (bits - 1)
        self._decoded = _decoder(self.rank, bits)
        self._encode = enc = self._decoded.encode
        q_consts, swap, zstep = self._consts
        self.q = [(enc(v), k) for v, k in q_consts]
        self.swap = [[c and (enc(c[0]), c[1]) for c in row] for row in swap]
        self._zstep = [self._in_q(i, zstep) for i in range(self.n)]

    def _in_q(self, i: int, poly) -> list:
        """A polynomial in q_i as (packed exponent, nonzero rational) pairs."""
        (e, k), out = self.q[i], {}
        for j, a in poly:
            add_term(out, e * j, a * k**j)
        return list(out.items())

    # -- term-map algebra ----------------------------------------------------

    def mul_terms(self, ta: Sequence, tb: Sequence) -> dict:
        """Product of two term maps, each given as the (ordered monomial,
        scalar) pairs an element holds, as {monomial: scalar}."""
        (pa, da), (pb, db) = self._pack(ta, tb)
        return _unpack(self._fold(pa, pb), da * db, self._decoded)

    def q_commutators(self, ta: Sequence, tb: Sequence, *cs: ExpVec) -> list:
        """For term maps a, b, given as to ``mul_terms``, and exponents ``cs``
        = (c,) or (c, c'): ``[ab - eta^c ba]`` or ``[ab - eta^c ba, ba -
        eta^c' ab]``, from one fold per order, unpacking only monomials whose
        numerators survive."""
        (pa, da), (pb, db) = self._pack(ta, tb, max([abs(x) for v in cs for x in v], default=0))
        ab, ba = self._fold(pa, pb), self._fold(pb, pa)
        # each difference is taken in place; the second reads ab, so the first copies it
        first = {m: dict(d) for m, d in ab.items()} if len(cs) == 2 else ab
        out = []
        for left, right, e in zip((first, ba), (ba, ab), map(self._encode, cs)):
            for m, d in right.items():
                _add_shifted(left, m, d, e, -1)
            out.append(_unpack(left, da * db, self._decoded))
        return out

    def _fold(self, pa: dict, pb: dict) -> dict:
        """Packed a*b on packed operands, all {monomial: {packed exponent:
        numerator}}: per right-hand term, the left operand times its
        monomial's blocks, scaled in the first pass, which writes only new
        tables, and added into the one output table in the last."""
        out = {}
        for mb, cb in pb.items():
            if blocks := [(p, e) for p, e in enumerate(mb) if e]:
                acc, scale = pa, cb
                for p, e in blocks[:-1]:
                    acc, scale = self._acc_times_block(acc, p, e, scale), None
                self._acc_times_block(acc, *blocks[-1], scale, out)
            else:  # a constant: no block carries its scalar
                for m, ca in pa.items():
                    for eb, kb in cb.items():
                        _add_shifted(out, m, ca, eb, kb)
        return out

    def _pack(self, ta: Sequence, tb: Sequence, shift: int = 0) -> list:
        """Each operand's (monomial, scalar) pairs packed once by
        ``_pack_terms``, into the table the fold reads, after widening the
        fields if the width bound of the class docstring, plus ``shift`` for
        a packed twist eta^c, asks.  A zero scalar packs to an empty table,
        which the fold and ``_unpack`` skip."""
        bound, degree = shift, 0
        for t in (ta, tb):
            bound += max([abs(x) for _, c in t for v, _ in c.terms for x in v], default=0)
            degree += max([sum(m) for m, _ in t], default=0)
        bound += self._growth * degree * (degree - 1) // 2
        if bound >= self._half:
            self._set_width(max(bound.bit_length() + 2, 2 * self._decoded.bits))
        return [_pack_terms(t, self._encode) for t in (ta, tb)]

    def _acc_times_block(self, acc: Mapping, p: int, e: int, scale=None, out=None) -> dict:
        """``out + scale * acc * g_p^e`` (scale None for 1, out a new table by
        default), one pass per monomial: a block swap, then g_p^e lands, or
        y_i^e under x_i^s, s > 0, takes e closed-form passes; returns out."""
        out, under = {} if out is None else out, {}
        cut = p + 2 - p % 2  # the end of g_p's pair
        for m, d in acc.items():
            if not d:  # its coefficients cancelled earlier in the fold
                continue
            et, kt = 0, 1
            for u in range(cut, 2 * self.n):
                if t := m[u]:
                    c, k = self.swap[u][p]
                    et, kt = et + c * t, kt * k**t
            if p % 2 == 0 and m[p + 1]:  # y_i under x_i^s
                key, table = m, under
            else:
                key, table = m[:p] + (m[p] + e,) + m[p + 1:], out
            if scale is not None:
                for es, ks in scale.items():
                    _add_shifted(table, key, d, et * e + es, kt**e * ks)
            elif et or kt != 1 or key in table:
                _add_shifted(table, key, d, et * e, kt**e)
            else:  # a trivial scalar onto a new key: it moves over uncopied
                table[key] = d
        (eq, kq), factors, zs = self.q[p // 2], {}, {}  # this call's f_s(q_i) by s, L z_{i-1} by L
        for left in range(e if under else 0, 0, -1):  # the y_i's still to append
            step, under = under, {} if left > 1 else out
            for m, d in step.items():
                if not (s := m[p + 1]):  # x_i is used up: the y_i's left land
                    _add_shifted(out, m[:p] + (m[p] + left,) + m[p + 1:], d, 0, 1)
                elif d:  # the closed form of the class docstring, pair i = p//2 (0-based)
                    _add_shifted(under, m[:p] + (m[p] + 1,) + m[p + 1:], d, eq * s, kq**s)
                    block, z = (m[p], s - 1) + m[cut:], zs.get(m[:p])
                    if z is None:
                        z = zs[m[:p]] = self._times_z(m[:p]).items()
                    if s not in factors:  # empty where it is zero
                        factors[s] = self._in_q(p // 2, self._closed(s))
                    for (low, ez), c in z:
                        for ef, kf in factors[s]:
                            _add_shifted(under, low + block, d, ez + ef, c * kf)
        return out

    def _times_z(self, low: PbwMonomial) -> dict:
        """``low * z_k`` for an ordered monomial ``low`` on the first k pairs
        (a tuple of length 2k), as ``Q_1 low + sum_j g(q_j) Q_j low^(j)``:
        ``Q_j = q_j^{s_j} ... q_k^{s_k}`` for the x-exponents s_l of low, and
        ``low^(j)`` is low with y_j x_j added to pair j."""
        out, eq, kq = {}, 0, 1
        for j in range(len(low) // 2 - 1, -1, -1):
            r, s = low[2 * j], low[2 * j + 1]
            e, k = self.q[j]
            eq, kq = eq + e * s, kq * k**s
            top = low[:2 * j] + (r + 1, s + 1) + low[2 * j + 2:]
            for ef, kf in self._zstep[j]:
                out[(top, eq + ef)] = kq * kf
        out[(low, eq)] = kq
        return out


class _Decoder(dict):
    """Packed exponents with fields of ``bits`` bits: ``encode`` packs a
    vector of length ``rank`` as ``sum_k v_k W^(rank-1-k)``, W = 2^bits, and
    the memo maps a packed exponent back, which is exact while every
    ``|v_k| < W/2``; adding W/2 to every field turns the fields into
    base-W digits; the memo is cleared when a store would pass ``MEMO_LIMIT``."""

    __slots__ = ("rank", "bits", "half", "mask", "shifts", "offset")

    def __init__(self, rank: int, bits: int):
        half, width = 1 << (bits - 1), 1 << bits
        self.rank, self.bits, self.half, self.mask = rank, bits, half, width - 1
        self.shifts = range(bits * (rank - 1), -1, -bits)
        self.offset = half * (width**rank - 1) // (width - 1)  # W/2 in every field

    def encode(self, vec) -> int:
        out, bits = 0, self.bits
        for x in vec:
            out = (out << bits) + x
        return out

    def __missing__(self, packed: int) -> ExpVec:
        x, half, mask = packed + self.offset, self.half, self.mask
        if len(self) >= StraighteningEngine.MEMO_LIMIT:
            self.clear()
        out = self[packed] = tuple([((x >> s) & mask) - half for s in self.shifts])
        return out


@lru_cache(maxsize=8)
def _decoder(rank: int, bits: int) -> _Decoder:
    """The process's decoder of ``rank`` and ``bits``: it holds no instance, and the 8
    kept hold at most ``8 * MEMO_LIMIT`` exponents (an engine keeps an evicted one)."""
    return _Decoder(rank, bits)


def _pack_terms(terms, enc) -> tuple[dict, int]:
    """(monomial, scalar) pairs as one table {monomial: {packed exponent:
    rational * den}}, and ``den``, the common denominator of the rationals."""
    den = math.lcm(*[k.denominator for _, c in terms for _, k in c.terms])
    return {m: {enc(v): k.numerator * (den // k.denominator) for v, k in c.terms}
            for m, c in terms}, den


def _unpack(out: dict, den: int, dec: _Decoder) -> dict:
    """One ``QTScalar`` per monomial of ``out``, a map from packed
    exponents to numerators over ``den``: each distinct numerator is divided
    once, and monomials whose numerators all cancelled are left out.  Packed
    exponents sort as ints in the order of their vectors."""
    canonical, rank = QTScalar._canonical, dec.rank
    if den == 1:  # the numerators are the coefficients
        return {m: canonical(rank, [(dec[e], d[e]) for e in sorted(d)])
                for m, d in out.items() if d}
    exact = exact_quotients(out, den)
    return {m: canonical(rank, [(dec[e], exact[d[e]]) for e in sorted(d)])
            for m, d in out.items() if d}


def _add_shifted(out: dict, m: PbwMonomial, d: Mapping, e2: int, k2) -> None:
    """``out[m] += k2 * eta^e2 * d`` on packed scalars, dropping zero sums;
    a monomial new to ``out`` takes a new packed scalar."""
    sub = out.get(m)
    if sub is None:
        out[m] = {e + e2: c * k2 for e, c in d.items()}
        return
    for e, c in d.items():
        e += e2
        v = sub.get(e, 0) + c * k2
        if v:
            sub[e] = v
        else:
            sub.pop(e, None)


@dataclass(frozen=True)
class WeylParams:
    """Instance data: number of pairs n, parameter rank r, exponent vectors
    s_i with q_i = eta^{s_i}, and the antisymmetric table L_ij with
    lam_ij = eta^{L_ij}."""

    n: int
    r: int
    qexp: tuple[ExpVec, ...]
    lexp: tuple[tuple[ExpVec, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "qexp", tuple(tuple(v) for v in self.qexp))
        object.__setattr__(
            self, "lexp", tuple(tuple(tuple(v) for v in row) for row in self.lexp)
        )
        if type(self.n) is not int or type(self.r) is not int:  # bools and floats are not sizes
            raise ValueError(f"n = {self.n!r} and r = {self.r!r} must be ints")
        if self.n < 0 or self.r < 0:
            raise ValueError("n and r must be nonnegative")
        if self.r < 1 and self.n > 0:
            raise ValueError("rank r must be positive")
        if len(self.qexp) != self.n:
            raise ValueError(f"expected {self.n} q exponent vectors")
        if len(self.lexp) != self.n or any(len(row) != self.n for row in self.lexp):
            raise ValueError("lexp must be an n x n table")
        for i, v in enumerate(self.qexp):
            if len(v) != self.r:
                raise ValueError(f"s_{i + 1} has length {len(v)}, expected {self.r}")
            if any(type(e) is not int for e in v):  # bools and floats are not exponents
                raise ValueError(f"s_{i + 1} = {v} must have integer entries")
            if not any(v):
                raise ValueError(f"s_{i + 1} must be nonzero (q_{i + 1} != 1)")
        for i in range(self.n):
            for j in range(self.n):
                v = self.lexp[i][j]
                if len(v) != self.r:
                    raise ValueError(f"L_{i + 1}{j + 1} has wrong length")
                if any(type(e) is not int for e in v):
                    raise ValueError(f"L_{i + 1}{j + 1} = {v} must have integer entries")
                if i == j and any(v):
                    raise ValueError("diagonal L_ii must be zero")
                if self.lexp[i][j] != vec_neg(self.lexp[j][i]):
                    raise ValueError(
                        f"L_{i + 1}{j + 1} must equal -L_{j + 1}{i + 1}"
                    )

    @classmethod
    def from_coordinate_matrices(
        cls, n: int, r: int, q_exponents: Sequence[Sequence[int]],
        lambda_exponents: Sequence[Sequence[Sequence[int]]],
    ) -> "WeylParams":
        """Build from the configuration layout: q_exponents is an n x r
        matrix of rows s_i; lambda_exponents is a list of r antisymmetric
        n x n matrices, one per eta-coordinate."""
        if len(lambda_exponents) != r:
            raise ValueError(f"expected {r} coordinate matrices")
        qexp = tuple(tuple(row) for row in q_exponents)
        lexp = tuple(
            tuple(
                tuple(lambda_exponents[k][i][j] for k in range(r))
                for j in range(n)
            )
            for i in range(n)
        )
        return cls(n, r, qexp, lexp)

    # -- scalar views of the structure constants -----------------------------

    def s(self, i: int) -> ExpVec:
        return self.qexp[i - 1]

    def L(self, i: int, j: int) -> ExpVec:
        return self.lexp[i - 1][j - 1]

    def q_scalar(self, i: int) -> QTScalar:
        return QTScalar.monomial(self.s(i))

    def lam_scalar(self, i: int, j: int) -> QTScalar:
        return QTScalar.monomial(self.L(i, j))

    @cached_property
    def engine(self) -> StraighteningEngine:
        return StraighteningEngine(self.n, self.r, lambda v: (v, 1), self.qexp, self.lexp)

    @cached_property
    def rescaled_engine(self) -> StraighteningEngine:
        """The engine of Y_i = (q_i - 1)^{-1} y_i and x_i: f_s = [s]_q, g = q - 1."""
        return StraighteningEngine(self.n, self.r, lambda v: (v, 1), self.qexp, self.lexp,
                                   lambda s: [(j, 1) for j in range(s)], ((1, 1), (0, -1)))

    @cached_property
    def poisson_brackets(self) -> dict:
        """Memo of the Poisson limit's generator brackets, filled by
        :mod:`qweyl.poisson` for the slot pairs met: ``(p, q)`` holds F_pq,
        the r-tuple of ints with {g_p, g_q} = (F_pq . mu) g_p g_q (plus
        (s_i . mu) z_{i-1} for {x_i, y_i}).  At most (2n)^2 entries; it
        lives and dies with this instance."""
        return {}

    @cached_property
    def max_form_entry(self) -> int:
        """Largest |entry| of any F_pq (of s_i, L_ij, s_i + L_ij, i < j): sizes pb_bracket."""
        return max([abs(x) for i, s in enumerate(self.qexp) for v in ((0,) * self.r,  # 0: s_i
                    *self.lexp[i][i + 1:]) for x in (*v, *vec_add(s, v))], default=0)

    @cached_property
    def atoms(self) -> dict:
        """Memo of the generator leaves the expression evaluator reads,
        filled by :mod:`qweyl.exprs`: ``(cls, kind, i)`` holds y_i, x_i or
        z_i as a ``cls`` element, for the two classes an expression is
        evaluated in, so at most 2(3n + 1) entries; it lives and dies with
        this instance."""
        return {}

    @cached_property
    def torus_table(self) -> dict:
        """Memo of what every stratum table reads, filled by
        :mod:`qweyl.spectra`: per ordered pair of the 3n - 1 tagged stratum
        generators one record and one verdict, and per generator two
        images, so at most 6n(3n - 1) entries; it lives and dies with this
        instance."""
        return {}


class PbwElement(TermMap):
    """Finite map from ordered (PBW) monomials to nonzero coefficients.

    The quantized algebra and its Poisson limit share the basis and differ
    only in the coefficient ring ``scalar_type`` and the product: the
    Poisson limit keeps the commutative product of :class:`TermMap`.  A
    coefficient is a ``scalar_type`` value of rank r, or a rational.
    """

    __slots__ = ()
    params = TermMap.context
    _z_step = classmethod(lambda cls, params, k: cls.scalar_type.constant(params.r, 1))
    mismatch_error = ParamsMismatchError
    mismatch_message = "elements belong to different instances"

    @staticmethod
    def _order(items) -> list:
        """Degree ascending, then exponents descending (z_2 prints as 1 +
        y1*x1 + y2*x2): a reverse tuple sort, then a stable sort on degree."""
        out = sorted(items, reverse=True)
        out.sort(key=lambda t: sum(t[0]))
        return out

    @classmethod
    def _term(cls, params: WeylParams, m, c):
        m = cls._monomial(params, m)
        if not isinstance(c, cls.scalar_type):
            return m, cls.scalar_type.constant(params.r, c)
        if c.rank != params.r:
            raise c.mismatch_error(c.mismatch_message.format(c.rank, params.r))
        return m, c

    @staticmethod
    def _monomial(params: WeylParams, m) -> PbwMonomial:
        """``m`` as a tuple, checked to be an ordered monomial on n pairs."""
        m = tuple(m)
        if len(m) != 2 * params.n:
            raise ValueError(f"bad monomial exponent tuple {m}")
        for e in m:
            if type(e) is not int or e < 0:
                raise ValueError(f"bad monomial exponent tuple {m}")
        return m

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, params: WeylParams, c):
        return cls(params, [((0,) * (2 * params.n), c)])

    constant = scalar

    @classmethod
    def monomial(cls, params: WeylParams, m: PbwMonomial, coeff=1):
        return cls(params, [(tuple(m), coeff)])

    @classmethod
    def generator(cls, params: WeylParams, kind: str, i: int):
        """y_i or x_i (1 <= i <= n), or z_i (0 <= i <= n, built by ``z``)."""
        if kind == "z":
            return cls.z(params, i)
        if kind not in ("y", "x"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if type(i) is not int:  # bools and floats are not indices
            raise ValueError(f"generator index {i!r} must be an int")
        if not 1 <= i <= params.n:
            raise ValueError(f"generator index {i} out of range 1..{params.n}")
        m = [0] * (2 * params.n)
        m[pos_y(i) if kind == "y" else pos_x(i)] = 1
        return cls._canonical(params, [(tuple(m), cls.scalar_type.constant(params.r, 1))])

    @classmethod
    def z(cls, params: WeylParams, i: int):
        """z_i = 1 + sum_{k<=i} g_k y_k x_k, g_k = ``_z_step(params, k)``; z_0 = 1.
        Its terms are built in the class order (1, then y_k x_k for k
        ascending) with stored coefficients, so they need no constructor pass."""
        if type(i) is not int:
            raise ValueError(f"z index {i!r} must be an int")
        if not 0 <= i <= params.n:
            raise ValueError(f"z index {i} out of range 0..{params.n}")
        terms = [((0,) * (2 * params.n), cls.scalar_type.constant(params.r, 1))]
        for k in range(1, i + 1):
            m = [0] * (2 * params.n)
            m[pos_y(k)] = m[pos_x(k)] = 1
            terms.append((tuple(m), cls._z_step(params, k)))
        return cls._canonical(params, terms)

    # -- structure ------------------------------------------------------------

    def coefficient(self, m: PbwMonomial):
        m = tuple(m)
        for mm, c in self.terms:
            if mm == m:
                return c
        return self.scalar_type.zero(self.params.r)

    def __str__(self) -> str:
        return element_to_str(self)


class WeylElement(PbwElement):
    """Element of the quantized algebra: coefficients are eta-scalars and
    products are straightened by the instance's engine."""

    __slots__ = ()
    scalar_type = QTScalar
    _engine = staticmethod(lambda params: params.engine)  # what straightens products

    def _product(self, other: "WeylElement") -> "WeylElement":
        """Straightened by the class's engine; a scalar operand (one constant
        term) is central and scales the other's coefficients in place: over a
        domain, the monomials, their order and their count stay."""
        params, ta, tb = self.params, self.terms, other.terms
        if len(ta) == 1 and not any(ta[0][0]):
            ta, tb = tb, ta
        if len(tb) == 1 and not any(tb[0][0]):
            c = tb[0][1]
            return self._canonical(params, [(m, cc * c) for m, cc in ta])
        return self._canonical(params, self._order(
            self._engine(params).mul_terms(self.terms, other.terms).items()))


class MaltsiniotisElement(WeylElement):
    """Element in the basis Y^a x^b, Y_i = (q_i - 1)^{-1} y_i (printed as
    y_i), straightened by ``rescaled_engine``; see :func:`from_maltsiniotis`."""

    __slots__ = ()
    _engine = staticmethod(lambda params: params.rescaled_engine)
    _z_step = staticmethod(lambda params, k: params.q_scalar(k) - 1)


def pbw_monomial_str(m: PbwMonomial) -> str:
    factors = []
    for slot, e in enumerate(m):
        if not e:
            continue
        i = slot // 2 + 1
        name = ("y" if slot % 2 == 0 else "x") + str(i)
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


@digit_limited
def element_to_str(a, monomial_str=pbw_monomial_str) -> str:
    """Grammar-compatible rendering of an element; ``monomial_str`` prints a monomial."""
    if not a.terms:
        return "0"
    parts = []
    for m, c in a.terms:
        mono = monomial_str(m)
        cs = str(c)
        if len(c.terms) > 1:
            cs = f"({cs})"
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{cs}*{mono}")
    return " + ".join(parts)


# -- named operations ------------------------------------------------------------


def wa_commutator(a: PbwElement, b: PbwElement) -> PbwElement:
    """ab - ba, folded once per order on the engine of a's class; divisible
    by (t - 1) coefficientwise in the quantized algebra and the plane."""
    if type(b) is not type(a):
        raise TypeError(f"no commutator of a {type(a).__name__} and a {type(b).__name__}")
    if not hasattr(a, "_engine"):
        raise TypeError(f"no commutator of {type(a).__name__}s: the Poisson product commutes")
    a._check(b)
    engine = a._engine(a.params)
    (comm,) = engine.q_commutators(a.terms, b.terms, (0,) * a.params.r)
    return a._canonical(a.params, a._order(comm.items()))


wa_z = WeylElement.z


def from_maltsiniotis(value: MaltsiniotisElement) -> WeylElement:
    """``value`` in the quantized algebra: the coefficient of Y^a x^b is
    divided by (q_1 - 1) a_1 times, then by (q_2 - 1) a_2 times, and so on,
    on packed numerators.  At the first division that fails, the error names
    the term with the quotient reached so far and that (q_i - 1)."""
    if type(value) is not MaltsiniotisElement:
        raise TypeError(
            f"from_maltsiniotis takes a MaltsiniotisElement, not a {type(value).__name__}")
    params = value.params
    top = max([abs(x) for _, c in value.terms for v, _ in c.terms for x in v], default=0)
    size = max([abs(x) for v in params.qexp for x in v], default=0)
    # no narrower than an engine, so that it shares the engines' decoder
    dec = _decoder(params.r, max((top * (1 + size)).bit_length() + 1, StraighteningEngine.MIN_BITS))
    out, den = _pack_terms(value.terms, dec.encode)
    for mono, d in out.items():
        for i, (a, v) in enumerate(zip(mono[::2], params.qexp), 1):
            for _ in range(a):
                if (quot := _divide_by_q_minus_1(d, v, dec)) is None:
                    term = MaltsiniotisElement._canonical(
                        params, _unpack({mono: d}, den, dec).items())
                    raise LocalizationRequiredError(
                        f"term {term} does not clear the denominator (q{i} - 1); "
                        "localization required")
                d = out[mono] = quot
    return WeylElement._canonical(params, _unpack(out, den, dec).items())


def _divide_by_q_minus_1(d: dict, v: ExpVec, dec: _Decoder) -> dict | None:
    """``d / (eta^v - 1)`` for d = {packed exponent: numerator}, or None.

    On a line ``w + Z v`` with terms at positions t, ``d = (eta^v - 1) Q``
    reads ``d_t = Q_{t-1} - Q_t``: Q is a running sum from the lowest
    position, and exists exactly when d sums to 0 on every line, checked
    before any quotient term is built.  A term at w sits at ``t = w_k //
    v_k``, k the first nonzero slot of v, and is keyed by the packed ``w -
    t v``.  For w' = w + m v, t' = t + m and the keys agree; equal keys
    give w' - w = (t' - t) v while packing is injective on keys, that is
    while their entries, at most A (1 + S) for |w_j| <= A, |v_j| <= S and
    so |t| <= A, are below W/2, the bound W is sized by.  A quotient term
    lies between its line's end terms, entrywise too: no widening needed.
    """
    k = next(k for k, x in enumerate(v) if x)
    step, lines = dec.encode(v), {}  # key -> [(t, packed exponent, numerator)]
    for e, c in d.items():
        t = dec[e][k] // v[k]
        lines.setdefault(e - t * step, []).append((t, e, c))
    if any(sum([c for _, _, c in line]) for line in lines.values()):
        return None
    quot = {}
    for line in map(sorted, lines.values()):
        s = 0
        for (t, e, c), (u, _, _) in zip(line, line[1:]):
            s -= c
            if s:  # Q_t = s at e, and on through the gap up to position u
                for j in range(u - t):
                    quot[e + j * step] = s
    return quot
