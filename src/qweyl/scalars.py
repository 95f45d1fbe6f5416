"""Exact arithmetic for the parameter scalars of the quantized algebras.

Two coefficient domains live here:

* ``QTScalar`` -- rational combinations of Laurent monomials in the
  multiplicative parameter symbols ``eta_1 .. eta_r``.  A monomial is kept
  as its integer exponent vector, so products are exponent additions and
  every operation is exact.
* ``MuPoly`` -- polynomials over the rationals in the commuting symbols
  ``mu_1 .. mu_r`` which record first-order data of the parameters at the
  classical point ``t = 1`` (``mu_i`` is the derivative there of the
  interpolating function realizing ``eta_i``).

The bridge between the two domains is the pair of functionals ``eval_one``
(every eta-monomial goes to 1) and ``deriv_one`` (the log-derivative rule
``eta^v -> v . mu``), together with ``limit_div`` which computes the exact
value of ``a / (t - 1)`` at ``t = 1`` for scalars vanishing at 1.

Both are :class:`SparseScalar` term maps over the same exponent vectors and
share its arithmetic; they differ only in the operations of their ring and
in how a monomial prints.  All values are immutable after construction and
hashable; term maps are kept sorted by exponent vector so printing and
hashing are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

ExpVec = tuple[int, ...]
Rat = Union[int, Fraction]


class RankMismatchError(ValueError):
    """Scalars belonging to instances of different rank were combined."""


class NotDivisibleError(ArithmeticError):
    """Exact division failed (nonzero remainder)."""


def zero_vec(rank: int) -> ExpVec:
    return (0,) * rank


def vec_add(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: ExpVec) -> ExpVec:
    return tuple(-x for x in a)


def unit_vec(rank: int, i: int) -> ExpVec:
    """Standard basis vector with a 1 in (0-based) slot ``i``."""
    v = [0] * rank
    v[i] = 1
    return tuple(v)


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def add_term(table: dict, key, value) -> None:
    """Add ``value`` into ``table[key]``, dropping the key when the sum is zero.

    Every sparse term map in the package (scalars, elements, the engine's
    intermediate results, division remainders) accumulates through here, so
    no stored coefficient is ever zero.
    """
    c = table.get(key)
    c = value if c is None else c + value
    if c:
        table[key] = c
    else:
        table.pop(key, None)


class SparseScalar:
    """Sparse map from integer exponent vectors of length ``rank`` to
    nonzero rationals.  Subclasses fix what a vector means (an eta-monomial
    or a mu-monomial) and print it via ``_monomial_str``."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[ExpVec, Fraction] = {}
        for vec, coeff in terms:
            coeff = _as_fraction(coeff)
            vec = tuple(vec)
            if len(vec) != rank:
                raise RankMismatchError(
                    f"exponent vector {vec} has length {len(vec)}, expected rank {rank}"
                )
            add_term(acc, vec, coeff)
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int):
        return cls(rank)

    @classmethod
    def one(cls, rank: int):
        return cls(rank, [(zero_vec(rank), Fraction(1))])

    @classmethod
    def constant(cls, rank: int, value: Rat):
        return cls(rank, [(zero_vec(rank), _as_fraction(value))])

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_rank(self, other: "SparseScalar") -> None:
        if self.rank != other.rank:
            raise RankMismatchError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(self.rank, other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_rank(o)
        return type(self)(self.rank, list(self.terms) + list(o.terms))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.rank, [(v, -c) for v, c in self.terms])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_rank(o)
        out: dict[ExpVec, Fraction] = {}
        for va, ca in self.terms:
            for vb, cb in o.terms:
                add_term(out, vec_add(va, vb), ca * cb)
        return type(self)(self.rank, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.rank == other.rank and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.constant(self.rank, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, self.terms))

    # -- evaluation --------------------------------------------------------

    def eval_at(self, values: Sequence[Rat]) -> Fraction:
        """Evaluate with concrete rationals substituted for the symbols
        (nonzero ones wherever a negative exponent occurs)."""
        if len(values) != self.rank:
            raise RankMismatchError(
                f"{len(values)} values supplied for rank {self.rank}"
            )
        vals = [_as_fraction(v) for v in values]
        total = Fraction(0)
        for vec, c in self.terms:
            prod = Fraction(1)
            for base, e in zip(vals, vec):
                prod *= base**e
            total += c * prod
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (vec, coeff) in enumerate(self.terms):
            mono = self._monomial_str(vec)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class QTScalar(SparseScalar):
    """Element of the coefficient ring: sum of rational multiples of
    Laurent monomials ``eta_1^{v_1} ... eta_r^{v_r}``."""

    __slots__ = ()

    @classmethod
    def monomial(cls, vec: ExpVec, coeff: Rat = 1) -> "QTScalar":
        vec = tuple(vec)
        return cls(len(vec), [(vec, _as_fraction(coeff))])

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("QTScalar powers must be nonnegative integers")
        if len(self.terms) == 1:
            v, c = self.terms[0]
            return QTScalar(self.rank, [(tuple(k * e for e in v), c**k)])
        out = QTScalar.one(self.rank)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation functionals --------------------------------------------

    def eval_one(self) -> Fraction:
        """Value at the classical point: every eta-monomial becomes 1."""
        return sum((c for _, c in self.terms), Fraction(0))

    def deriv_one(self) -> "MuPoly":
        """Derivative at the classical point.

        Since each eta_i takes the value 1 there, the product rule gives
        ``d/dt eta^v |_1 = v_1 mu_1 + ... + v_r mu_r``; the result is always
        mu-linear.
        """
        return MuPoly(
            self.rank,
            [
                (unit_vec(self.rank, i), c * e)
                for v, c in self.terms
                for i, e in enumerate(v)
                if e
            ],
        )

    def limit_div(self) -> "MuPoly":
        """Exact value of ``self / (t - 1)`` at ``t = 1``.

        Requires ``eval_one() == 0``; then the quotient is regular at 1 with
        value equal to the derivative there.
        """
        if self.eval_one() != 0:
            raise NotDivisibleError(
                f"scalar {self} is nonzero at t=1; not divisible by (t-1)"
            )
        return self.deriv_one()

    # -- exact division ----------------------------------------------------

    def div_exact(self, divisor: "QTScalar") -> "QTScalar":
        """Exact quotient in the Laurent monomial ring.

        Monomials are units, so both operands are first normalized to honest
        polynomials (componentwise minimal exponent 0); a single-divisor
        multivariate division then decides divisibility, and the monomial
        shift is restored at the end.
        """
        o = self._coerce(divisor)
        if o is None:
            raise TypeError("divisor must be a QTScalar or rational")
        self._check_rank(o)
        if not o:
            raise ZeroDivisionError("division by the zero scalar")
        if not self:
            return QTScalar.zero(self.rank)

        def norm(s: QTScalar) -> tuple[ExpVec, dict[ExpVec, Fraction]]:
            shift = tuple(min(v[k] for v, _ in s.terms) for k in range(s.rank))
            return shift, {vec_sub(v, shift): c for v, c in s.terms}

        fshift, f = norm(self)
        gshift, g = norm(o)
        glead = max(g)
        glc = g[glead]
        quot: dict[ExpVec, Fraction] = {}
        offending = None
        while f:
            flead = max(f)
            step = vec_sub(flead, glead)
            if any(e < 0 for e in step):
                offending = flead
                break
            qc = f[flead] / glc
            quot[step] = qc
            for gv, gc in g.items():
                add_term(f, vec_add(step, gv), -(qc * gc))
        if offending is not None or f:
            raise NotDivisibleError(
                f"{self} is not divisible by {o}"
            )
        back = vec_sub(fshift, gshift)
        return QTScalar(self.rank, {vec_add(v, back): c for v, c in quot.items()})

    @staticmethod
    def _monomial_str(vec: ExpVec) -> str:
        return "eta^[" + ",".join(map(str, vec)) + "]" if any(vec) else ""


class MuPoly(SparseScalar):
    """Polynomial over the rationals in the derivative symbols mu_1 .. mu_r."""

    __slots__ = ()

    @classmethod
    def variable(cls, rank: int, i: int) -> "MuPoly":
        """The symbol mu_{i+1} (0-based slot ``i``)."""
        return cls(rank, [(unit_vec(rank, i), Fraction(1))])

    @classmethod
    def linear(cls, vec: ExpVec) -> "MuPoly":
        """The linear form ``v . mu = v_1 mu_1 + ... + v_r mu_r``."""
        rank = len(vec)
        return cls(rank, [(unit_vec(rank, i), Fraction(e)) for i, e in enumerate(vec) if e])

    def constant_part(self) -> Fraction:
        for v, c in self.terms:
            if not any(v):
                return c
        return Fraction(0)

    def is_constant(self) -> bool:
        return all(not any(v) for v, _ in self.terms)

    def degree(self) -> int:
        return max((sum(v) for v, _ in self.terms), default=0)

    def linear_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient vector (c_1 .. c_r) of a mu-linear form without
        constant term; raises if higher-degree or constant terms appear."""
        coeffs = [Fraction(0)] * self.rank
        for v, c in self.terms:
            if sum(v) != 1:
                raise ValueError(f"{self} is not a homogeneous linear mu-form")
            coeffs[v.index(1)] = c
        return tuple(coeffs)

    subs = SparseScalar.eval_at

    @staticmethod
    def _monomial_str(vec: ExpVec) -> str:
        return "*".join(
            f"mu{k + 1}" if e == 1 else f"mu{k + 1}^{e}" for k, e in enumerate(vec) if e
        )
