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

Both are :class:`SparseScalar` term maps over the same exponent vectors;
they differ only in the operations of their ring and in how a monomial
prints.  :class:`TermMap`, the base of the scalars and of the algebra
elements in :mod:`qweyl.weyl` and :mod:`qweyl.poisson`, holds the one copy
of their ring operations and of the commutative product, and
:func:`divide_terms` their one exact-division loop.  All values are
immutable after construction and hashable; term maps are kept sorted by
exponent vector so printing and hashing are deterministic.
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


class TermMap:
    """Immutable finite map from exponent tuples to nonzero coefficients.

    ``context`` is opaque here: term maps combine only when their contexts
    are equal.  A scalar's context is its rank and an algebra element's is
    its :class:`~qweyl.weyl.WeylParams` instance; each subclass reads it
    under its own name (``rank``, ``params``).  ``terms`` is the tuple of
    (exponent tuple, coefficient) pairs, sorted by the subclass's order.

    A subclass supplies the constructor ``cls(context, terms)``, which
    validates each term, drops zero sums and sorts, and the classmethod
    ``constant(context, value)``; ``int``, ``Fraction`` and ``scalar_type``
    values combine with a term map as constants.  ``_product`` is the
    commutative product (exponents add); a noncommutative ring replaces it.
    """

    __slots__ = ("context", "terms")
    scalar_type: type = Fraction
    mismatch_error: type
    mismatch_message: str  # formatted with both contexts

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def one(cls, context):
        return cls.constant(context, 1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "TermMap") -> None:
        if self.context != other.context:
            raise self.mismatch_error(
                self.mismatch_message.format(self.context, other.context)
            )

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction, self.scalar_type)):
            return self.constant(self.context, other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        return type(self)(self.context, self.terms + o.terms)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.context, [(m, -c) for m, c in self.terms])

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

    def scale(self, c):
        """Every coefficient times the scalar ``c``."""
        return type(self)(self.context, [(m, cc * c) for m, cc in self.terms])

    def _product(self, other: "TermMap") -> dict:
        out: dict = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                add_term(out, vec_add(ma, mb), ca * cb)
        return out

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return type(self)(self.context, self._product(other))
        return self.__rmul__(other)

    def __rmul__(self, other):
        # a scalar factor only scales, so ``_product`` always sees its
        # operands in the order written
        if isinstance(other, (int, Fraction, self.scalar_type)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"{type(self).__name__} powers must be nonnegative integers")
        out = self.one(self.context)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.context == o.context and self.terms == o.terms

    def __hash__(self):
        return hash((self.context, self.terms))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def divide_terms(f: TermMap, g: TermMap, key, inv, floor: tuple) -> dict:
    """Term map of the exact quotient ``f / g``, by single-divisor division.

    ``key`` is the monomial order of the exponent tuples (``None``: tuple
    order) by which both term maps are sorted, so ``g.terms[-1]`` is the
    leading term of ``g``; ``inv`` is the inverse of its coefficient.  A
    quotient exponent below ``floor`` in any slot means ``g`` does not
    divide ``f``; it also bounds the loop.  Raises :class:`NotDivisibleError`.
    """
    glead = g.terms[-1][0]
    rem = dict(f.terms)
    quot: dict = {}
    while rem:
        lead = max(rem, key=key)
        step = vec_sub(lead, glead)
        if any(e < b for e, b in zip(step, floor)):
            raise NotDivisibleError(f"{f} is not divisible by {g}")
        c = quot[step] = rem[lead] * inv
        for m, gc in g.terms:
            add_term(rem, vec_add(step, m), -(c * gc))
    return quot


class SparseScalar(TermMap):
    """Term map from integer exponent vectors of length ``rank`` to nonzero
    rationals.  Subclasses fix what a vector means (an eta-monomial or a
    mu-monomial) and print it via ``_monomial_str``."""

    __slots__ = ()
    rank = TermMap.context
    mismatch_error = RankMismatchError
    mismatch_message = "rank mismatch: {} vs {}"

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
        object.__setattr__(self, "context", int(rank))
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

    @classmethod
    def constant(cls, rank: int, value: Rat):
        return cls(rank, [(zero_vec(rank), value)])

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


class QTScalar(SparseScalar):
    """Element of the coefficient ring: sum of rational multiples of
    Laurent monomials ``eta_1^{v_1} ... eta_r^{v_r}``."""

    __slots__ = ()

    @classmethod
    def monomial(cls, vec: ExpVec, coeff: Rat = 1) -> "QTScalar":
        vec = tuple(vec)
        return cls(len(vec), [(vec, _as_fraction(coeff))])

    def __pow__(self, k: int):
        if len(self.terms) == 1 and isinstance(k, int) and k >= 0:
            (v, c), = self.terms
            return QTScalar(self.rank, [(tuple(k * e for e in v), c**k)])
        return super().__pow__(k)

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

        Monomials are units, so dividing both operands by their
        componentwise minimal monomials reduces this to polynomial division;
        a quotient exponent may thus go as low as the difference of the two
        minima, which is the floor handed to :func:`divide_terms`.
        """
        o = self._coerce(divisor)
        if o is None:
            raise TypeError("divisor must be a QTScalar or rational")
        self._check(o)
        if not o:
            raise ZeroDivisionError("division by the zero scalar")
        if not self:
            return self
        fmin, gmin = (tuple(map(min, zip(*(v for v, _ in s.terms)))) for s in (self, o))
        quot = divide_terms(self, o, None, 1 / o.terms[-1][1], vec_sub(fmin, gmin))
        return QTScalar(self.rank, quot)

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
