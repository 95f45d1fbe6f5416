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
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from .scalars import ExpVec, QTScalar, TermMap, add_term, vec_add, vec_neg

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


def mono_key(m: PbwMonomial) -> tuple[int, PbwMonomial]:
    """Canonical ordering key: total degree, then lexicographic.

    The lexicographic leg compares negated exponents so that, within a
    degree class, monomials concentrated on low-index generators come
    first (z_2 prints as 1 + y1*x1 + y2*x2).  Degree-first with any
    translation-invariant tie-break is a monomial order, which the exact
    division routines rely on.
    """
    return (sum(m), tuple(-e for e in m))


class StraighteningEngine:
    """Scalar-generic rewriting of generator words into the ordered basis.

    ``swap[qp][pp]`` holds the scalar c with ``g_qp g_pp = c g_pp g_qp`` for
    qp > pp, except the same-index slot (x_i, y_i) which is governed by the
    quadratic rule above.

    Appending y_i to ``m = L y_i^r x_i^s`` (L on the pairs below i, nothing
    above x_i) is done in closed form.  Since
    ``x_i^s y_i = q_i^s y_i x_i^s + (q_i^s - 1) z_{i-1} x_i^{s-1}`` and
    z_{i-1} commutes with y_i and x_i,

        m y_i = q_i^s (m + e_{y_i}) + (q_i^s - 1) (L z_{i-1}) y_i^r x_i^{s-1}.

    ``L z_{i-1}`` comes from a memo keyed by L alone (its length fixes the
    index), filled by ``L'B z_k = q_k^s (L' y_k^{r+1} x_k^{s+1} + (L' z_{k-1}) B)``
    with ``B = y_k^r x_k^s`` the last pair of L and ``z_0 = 1``; it has
    k + 1 terms with monomial coefficients.

    Termination of the recursion: appending a generator to an ordered
    monomial either lands directly (no occupied slot above it), or hits
    the closed form, or commutes under the top block with a monomial
    scalar.  The swap branch strips the top block, so the number of
    occupied slots above the target drops by one and at most
    ``2n - 1 - p`` swaps nest when appending the generator at slot p; the
    closed form reaches only the z memo, whose recursion shortens its key
    by one pair.  The swap depth bound is asserted in debug runs as a
    tripwire.
    """

    def __init__(self, n, one, q_consts, swap):
        self.n = n
        self.one = one
        self.q = list(q_consts)  # q_i per pair, 0-based
        self.swap = swap
        # monomial-times-generator results recur heavily across products;
        # values are treated as read-only by every caller
        self._gen_cache: dict = {}
        # L * z_k keyed by the ordered monomial L on the first k pairs
        self._z_cache: dict = {}

    # -- term-map algebra ----------------------------------------------------

    def mul_terms(self, ta: Mapping, tb: Mapping) -> dict:
        out: dict = {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                c = ca * cb
                for m, cm in self.mono_mul(ma, mb).items():
                    add_term(out, m, cm * c)
        return out

    def mono_mul(self, m1: PbwMonomial, m2: PbwMonomial) -> dict:
        acc = {m1: self.one}
        for p in range(2 * self.n):
            for _ in range(m2[p]):
                acc = self._acc_times_gen(acc, p)
        return acc

    def _acc_times_gen(self, acc: Mapping, p: int) -> dict:
        out: dict = {}
        for m, c in acc.items():
            for m2, c2 in self._mono_times_gen(m, p, 0).items():
                add_term(out, m2, c2 * c)
        return out

    def _mono_times_gen(self, m: PbwMonomial, p: int, depth: int) -> dict:
        if __debug__:
            assert depth <= 2 * self.n - 1 - p, "straightening recursion exceeded bound"
        cached = self._gen_cache.get((m, p))
        if cached is not None:
            return cached
        result = self._mono_times_gen_uncached(m, p, depth)
        self._gen_cache[(m, p)] = result
        return result

    def _mono_times_gen_uncached(self, m: PbwMonomial, p: int, depth: int) -> dict:
        top = -1
        for pos in range(2 * self.n - 1, p, -1):
            if m[pos]:
                top = pos
                break
        if top < 0:
            lst = list(m)
            lst[p] += 1
            return {tuple(lst): self.one}
        if p % 2 == 0 and top == p + 1:
            # the closed form of the class docstring, pair i = p//2 (0-based)
            s = m[top]
            qs = self.q[p // 2] ** s
            lst = list(m)
            lst[p] += 1
            out = {tuple(lst): qs}
            qs1 = qs - self.one
            if qs1:  # a specialized q_i may be a root of unity
                block = (m[p], s - 1) + m[top + 1:]
                for low, c in self._times_z(m[:p]).items():
                    out[low + block] = c * qs1
            return out
        # monomial swap under the whole g_top block
        e = m[top]
        lst = list(m)
        lst[top] = 0
        stripped = tuple(lst)
        c = self.swap[top][p] ** e
        out = {}
        for mm, cc in self._mono_times_gen(stripped, p, depth + 1).items():
            lst = list(mm)
            lst[top] += e
            add_term(out, tuple(lst), cc * c)
        return out

    def _times_z(self, low: PbwMonomial) -> dict:
        """``low * z_k`` for an ordered monomial ``low`` on the first k
        pairs (a tuple of length 2k); read-only like the generator cache."""
        cached = self._z_cache.get(low)
        if cached is not None:
            return cached
        if not low:
            out = {low: self.one}
        else:
            rest, r, s = low[:-2], low[-2], low[-1]
            qs = self.q[len(rest) // 2] ** s
            out = {rest + (r + 1, s + 1): qs}
            for mm, c in self._times_z(rest).items():
                out[mm + (r, s)] = c * qs
        self._z_cache[low] = out
        return out


def build_engine(n: int, one, monomial_of_vec, qexp, lexp) -> StraighteningEngine:
    """Assemble an engine from exponent data and a scalar constructor.

    ``monomial_of_vec`` maps an exponent vector to a scalar (a QTScalar
    monomial for the formal algebra, a rational for a specialized one).
    """
    q_consts = [monomial_of_vec(qexp[i]) for i in range(n)]
    size = 2 * n
    swap = [[None] * size for _ in range(size)]
    for j in range(1, n + 1):
        for i in range(1, j):
            s_i, l_ij, l_ji = qexp[i - 1], lexp[i - 1][j - 1], lexp[j - 1][i - 1]
            swap[pos_y(j)][pos_y(i)] = monomial_of_vec(l_ji)
            swap[pos_y(j)][pos_x(i)] = monomial_of_vec(l_ij)
            swap[pos_x(j)][pos_y(i)] = monomial_of_vec(vec_add(s_i, l_ij))
            swap[pos_x(j)][pos_x(i)] = monomial_of_vec(vec_neg(vec_add(s_i, l_ij)))
    return StraighteningEngine(n, one, q_consts, swap)


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
        if self.n < 0:
            raise ValueError("n must be nonnegative")
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

    def eta_monomial(self, vec: ExpVec) -> QTScalar:
        return QTScalar.monomial(vec)

    @cached_property
    def engine(self) -> StraighteningEngine:
        return build_engine(
            self.n, QTScalar.one(self.r), QTScalar.monomial, self.qexp, self.lexp
        )

    @cached_property
    def poisson_brackets(self) -> dict:
        """Memo of the Poisson limit's generator brackets, keyed by slot
        pair and filled by :mod:`qweyl.poisson`; it lives and dies with
        this instance."""
        return {}


class PbwElement(TermMap):
    """Finite map from ordered (PBW) monomials to nonzero coefficients.

    The quantized algebra and its Poisson limit share the basis and differ
    only in the coefficient ring ``scalar_type`` and the product: the
    Poisson limit keeps the commutative product of :class:`TermMap`.
    """

    __slots__ = ()
    params = TermMap.context
    mismatch_error = ParamsMismatchError
    mismatch_message = "elements belong to different instances"
    _sort_key = staticmethod(lambda t: mono_key(t[0]))

    def __init__(self, params: WeylParams, terms=()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        ring = self.scalar_type
        acc: dict = {}
        for m, c in terms:
            m = tuple(m)
            if len(m) != 2 * params.n or any(type(e) is not int or e < 0 for e in m):
                raise ValueError(f"bad monomial exponent tuple {m}")
            if not isinstance(c, ring):
                c = ring.constant(params.r, c)
            add_term(acc, m, c)
        object.__setattr__(self, "context", params)
        object.__setattr__(
            self, "terms", tuple(sorted(acc.items(), key=self._sort_key))
        )

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
        if kind not in ("y", "x"):
            raise ValueError(f"unknown generator kind {kind!r}")
        if not 1 <= i <= params.n:
            raise ValueError(f"generator index {i} out of range 1..{params.n}")
        m = [0] * (2 * params.n)
        m[pos_y(i) if kind == "y" else pos_x(i)] = 1
        return cls.monomial(params, tuple(m))

    @classmethod
    def z(cls, params: WeylParams, i: int):
        """z_i = 1 + sum_{k<=i} y_k x_k, with z_0 = 1."""
        if not 0 <= i <= params.n:
            raise ValueError(f"z index {i} out of range 0..{params.n}")
        terms = [((0,) * (2 * params.n), 1)]
        for k in range(1, i + 1):
            m = [0] * (2 * params.n)
            m[pos_y(k)] = 1
            m[pos_x(k)] = 1
            terms.append((tuple(m), 1))
        return cls(params, terms)

    # -- structure ------------------------------------------------------------

    def degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=0)

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

    def _product(self, other: "WeylElement") -> "WeylElement":
        return self._from_sums(
            self.params, self.params.engine.mul_terms(dict(self.terms), dict(other.terms))
        )


def pbw_monomial_str(m: PbwMonomial) -> str:
    factors = []
    for slot, e in enumerate(m):
        if not e:
            continue
        i = slot // 2 + 1
        name = ("y" if slot % 2 == 0 else "x") + str(i)
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def element_to_str(a) -> str:
    """Grammar-compatible rendering shared by Weyl and Poisson elements."""
    if not a.terms:
        return "0"
    parts = []
    for m, c in a.terms:
        mono = pbw_monomial_str(m)
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


def wa_commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """ab - ba; always divisible by (t - 1) coefficientwise."""
    return a * b - b * a


wa_z = WeylElement.z


def wa_divisible_by_t_minus_1(a: WeylElement) -> bool:
    """True iff every coefficient vanishes at the classical point."""
    return all(c.eval_one() == 0 for _, c in a.terms)


FreeWord = tuple[tuple[str, int], ...]


def from_maltsiniotis(
    params: WeylParams, terms: Iterable[tuple[QTScalar, FreeWord]]
) -> WeylElement:
    """Image of an element of the unrescaled presentation under the generator
    substitution x_i -> x_i, y_i -> (q_i - 1)^{-1} y_i.

    The input is a sum of (scalar, word) pairs, each word a sequence of
    ("y"|"x", index).  Each y_i occurrence contributes a central denominator
    (q_i - 1); the result is defined only when, after combining terms over a
    common denominator, every coefficient clears it exactly.  Otherwise a
    :class:`LocalizationRequiredError` reports the first offending term.
    """
    n, r = params.n, params.r
    images: list[tuple[tuple[int, ...], WeylElement]] = []
    for coeff, word in terms:
        if not isinstance(coeff, QTScalar):
            coeff = QTScalar.constant(r, coeff)
        denom = [0] * n
        elem = WeylElement.scalar(params, coeff)
        for kind, i in word:
            if kind == "y":
                denom[i - 1] += 1
            elem = elem * WeylElement.generator(params, kind, i)
        images.append((tuple(denom), elem))
    if not images:
        return WeylElement.zero(params)
    common = tuple(max(d[i] for d, _ in images) for i in range(n))
    numerator = WeylElement.zero(params)
    for denom, elem in images:
        mult = QTScalar.one(r)
        for i in range(n):
            mult = mult * (params.q_scalar(i + 1) - 1) ** (common[i] - denom[i])
        numerator = numerator + elem.scale(mult)
    out = []
    for mono, c in numerator.terms:
        for i in range(n):
            factor = params.q_scalar(i + 1) - 1
            for _ in range(common[i]):
                try:
                    c = c.div_exact(factor)
                except ArithmeticError:
                    raise LocalizationRequiredError(
                        f"term {c}*{pbw_monomial_str(mono) or '1'} does not clear "
                        f"the denominator (q{i + 1} - 1); localization required"
                    ) from None
        out.append((mono, c))
    return WeylElement(params, out)
