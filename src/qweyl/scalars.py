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

Both are :class:`SparseScalar` term maps over the same vectors of ``int``
exponents; they differ only in their ring operations and in how a monomial
prints.  :class:`TermMap`, the base of the scalars and of the elements of
:mod:`qweyl.weyl`, :mod:`qweyl.poisson` and :mod:`qweyl.quantum_plane`,
holds the one copy of their ring operations and commutative product, and
:func:`signed_sum` the one printer of a signed sum of rationals (also for
``QuadPoly``).  The ring has no division (the one exact division, by
``eta^v - 1``, is in :func:`qweyl.weyl.from_maltsiniotis`).  All values are
immutable and hashable; term maps are kept sorted by exponent vector so
printing and hashing are deterministic.

A rational coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` otherwise, never as a ``float``: the structure constants of the
straightening engine all have coefficient 1 or -1, and ``int`` arithmetic is
several times cheaper than ``Fraction`` arithmetic.  Since an ``int`` and the
equal ``Fraction`` compare and hash alike, the form changes no value, hash or
printed output.  Every inverse is exact (``Fraction(1, c)``), and the
functionals that return one rational (``eval_one``, ``eval_at``,
``constant_part``, ``linear_coefficients``) return ``Fraction``.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import wraps
from typing import Union

ExpVec = tuple[int, ...]
Rat = Union[int, Fraction]


class RankMismatchError(ValueError):
    """Scalars belonging to instances of different rank were combined."""


class NotDivisibleError(ArithmeticError):
    """Exact division failed (nonzero remainder)."""


def zero_vec(rank: int) -> ExpVec:
    return (0,) * rank


def vec_add(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(map(operator.add, a, b))


def vec_sub(a: ExpVec, b: ExpVec) -> ExpVec:
    return tuple(map(operator.sub, a, b))


def vec_neg(a: ExpVec) -> ExpVec:
    return tuple(-x for x in a)


def unit_vec(rank: int, i: int) -> ExpVec:
    """Standard basis vector with a 1 in (0-based) slot ``i``."""
    v = [0] * rank
    v[i] = 1
    return tuple(v)


def _coefficient(x: Rat) -> Rat:
    """Stored form of a rational coefficient: an ``int`` when it is
    integral, else a ``Fraction``.  Raises ``TypeError`` on anything else,
    floats included."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _as_fraction(x: Rat) -> Fraction:
    return Fraction(_coefficient(x))


def exact_quotients(sums: Mapping, den: int) -> dict:
    """Each distinct value of the inner maps of ``sums`` over ``den``, divided
    once, in stored form (an ``int`` exactly when den divides it); empty when
    den = 1, so it is read with ``.get(c, c)``."""
    return {} if den == 1 else {c: Fraction(c, den) if c % den else c // den
                                for c in {c for d in sums.values() for c in d.values()}}


def add_term(table: dict, key, value) -> None:
    """Add ``value`` into ``table[key]``, dropping the key when the sum is zero.

    Every sparse term map in the package (elements, the engine's
    intermediate results) accumulates through here, so no stored
    coefficient is ever zero; :meth:`TermMap._from_sums` and the
    constructor drop zero sums at the end instead.
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

    The constructor ``cls(context, terms)`` takes pairs or a mapping.  It
    checks each pair with the subclass's hook ``_term(context, m, c)``,
    which raises on a malformed pair (a coefficient of another rank
    included) and returns it in stored form, adds pairs that share a
    monomial and keeps the nonzero sums as :meth:`_from_sums` does.  A
    subclass also supplies the classmethod ``constant(context, value)``;
    ``int``, ``Fraction`` and ``scalar_type`` values combine with a term map
    as constants.  ``_product`` is the commutative product (exponents add);
    a noncommutative ring replaces it.  ``_exact`` puts a sum or product of
    stored coefficients in stored form, and the order hook ``_order(items)``
    returns (exponent tuple, coefficient) pairs with distinct exponent
    tuples as a list in the subclass's order (here tuple order: ``sorted``,
    which never compares a coefficient).  Results of the ring operations,
    :meth:`scale` included, are valid by construction and skip the checks
    through :meth:`_from_sums`.  Term maps combine and compare equal only
    within one exact class: ``y1 + Y1`` of a ``WeylElement`` and a
    ``MaltsiniotisElement`` raises TypeError.
    """

    __slots__ = ("context", "terms")
    scalar_type: type = Fraction
    mismatch_error: type
    mismatch_message: str  # formatted with both contexts
    _exact = staticmethod(lambda c: c)
    _order = staticmethod(sorted)

    def __init__(self, context, terms=()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        term = self._term
        sums: dict = {}
        for m, c in terms:
            m, c = term(context, m, c)
            old = sums.get(m)
            sums[m] = c if old is None else old + c
        self._fill(context, sums)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _canonical(cls, context, terms):
        """Instance holding ``terms`` as given: they must already be sorted,
        have distinct monomials and nonzero coefficients in stored form."""
        self = object.__new__(cls)
        _set_context(self, context)  # the slots' own setters, past ``__setattr__``
        _set_terms(self, tuple(terms))
        return self

    @classmethod
    def _from_sums(cls, context, sums: dict):
        """Instance of the nonzero entries of ``sums``, a dict from exponent
        tuples of the right shape to sums of stored coefficients."""
        self = object.__new__(cls)
        self._fill(context, sums)
        return self

    def _fill(self, context, sums: dict) -> None:
        exact = self._exact
        _set_context(self, context)
        _set_terms(self, tuple(self._order([(m, exact(c)) for m, c in sums.items() if c])))

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def one(cls, context):
        return cls.constant(context, 1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Largest total degree of a term; 0 for no terms."""
        return max((sum(m) for m, _ in self.terms), default=0)

    def _check(self, other: "TermMap") -> None:
        if self.context != other.context:
            raise self.mismatch_error(
                self.mismatch_message.format(self.context, other.context)
            )

    def _coerce(self, other):
        if type(other) is type(self):  # no subclass: a rescaled element is not a plain one
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
        sums = dict(self.terms)
        for m, c in o.terms:
            old = sums.get(m)
            sums[m] = c if old is None else old + c
        return self._from_sums(self.context, sums)

    __radd__ = __add__

    def __neg__(self):
        return self._canonical(self.context, [(m, -c) for m, c in self.terms])

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
        """Every coefficient times ``c``, a rational or a ``scalar_type`` value."""
        if not isinstance(c, (int, Fraction, self.scalar_type)):
            raise TypeError(f"cannot scale a {type(self).__name__} by a {type(c).__name__}")
        if not self.terms:
            # no coefficient product checks the rank of c; the constant does
            self.constant(self.context, c)
            return self
        return self._from_sums(self.context, {m: cc * c for m, cc in self.terms})

    def _product(self, other: "TermMap") -> "TermMap":
        out: dict = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                add_term(out, vec_add(ma, mb), ca * cb)
        return self._from_sums(self.context, out)

    def __mul__(self, other):
        if type(other) is type(self):
            self._check(other)
            return self._product(other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        # a scalar factor only scales, so ``_product`` always sees its
        # operands in the order written
        if isinstance(other, (int, Fraction, self.scalar_type)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if type(k) is not int or k < 0:  # bools are not exponents
            raise ValueError(f"{type(self).__name__} powers must be nonnegative integers")
        # square and multiply, no product by one; ``base * out`` keeps
        # ``s ** 3`` as ``s^2 * s``
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else base * out
            k >>= 1
            if k:
                base = base * base
        return self.one(self.context) if out is None else out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.context == o.context and self.terms == o.terms

    def __hash__(self):
        return hash((self.context, self.terms))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


_set_context, _set_terms = TermMap.context.__set__, TermMap.terms.__set__


class DigitLimitError(ValueError):
    """A number has more digits than the interpreter converts to text."""


def digit_limited(printer):
    """``printer`` raising DigitLimitError where it would convert an integer
    past the interpreter's limit on printed digits: the one guard of every
    printer of numbers and monomials."""

    @wraps(printer)
    def guarded(*args):
        try:
            return printer(*args)
        except ValueError:  # only int-to-text conversion can raise it in a printer
            raise DigitLimitError(
                f"a number has more than {sys.get_int_max_str_digits()} digits, "
                "the limit for printing an integer"
            ) from None

    return guarded


@digit_limited
def signed_sum(terms: Iterable[tuple[Rat, str]]) -> str:
    """``c1*m1 + c2*m2 - ...`` for (nonzero rational, monomial string) pairs,
    ``0`` for none; a magnitude of 1 is left out before a monomial."""
    parts = []
    for coeff, mono in terms:
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if parts:
            parts.append(("- " if coeff < 0 else "+ ") + body)
        else:
            parts.append(("-" if coeff < 0 else "") + body)
    return " ".join(parts) or "0"


class SparseScalar(TermMap):
    """Term map from integer exponent vectors of length ``rank`` to nonzero
    rationals, each stored as an ``int`` when integral, else a ``Fraction``.
    Subclasses fix what a vector means (an eta-monomial or a mu-monomial)
    and print it via ``_monomial_str``; ``laurent`` says whether negative
    exponents are allowed.  ``_term`` takes a vector of ``rank`` ``int``
    entries and a rational coefficient."""

    __slots__ = ()
    rank = TermMap.context
    mismatch_error = RankMismatchError
    mismatch_message = "rank mismatch: {} vs {}"
    laurent = True
    _exact = staticmethod(_coefficient)

    @classmethod
    def _term(cls, rank, vec, coeff):
        vec = tuple(vec)
        if len(vec) != rank:
            raise RankMismatchError(
                f"exponent vector {vec} has length {len(vec)}, expected rank {rank}"
            )
        for e in vec:
            if type(e) is not int:  # bools and floats are not exponents
                raise ValueError(f"{cls.__name__} exponents {vec} must be ints")
            if e < 0 and not cls.laurent:
                raise ValueError(f"negative exponent in {cls.__name__} monomial {vec}")
        return vec, _coefficient(coeff)

    @classmethod
    def constant(cls, rank: int, value: Rat):
        vec, c = cls._term(rank, zero_vec(rank), value)
        return cls._canonical(rank, [(vec, c)] if c else ())

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
        return signed_sum((c, self._monomial_str(v)) for v, c in self.terms)


class QTScalar(SparseScalar):
    """Element of the coefficient ring: sum of rational multiples of
    Laurent monomials ``eta_1^{v_1} ... eta_r^{v_r}``."""

    __slots__ = ()

    @classmethod
    def monomial(cls, vec: ExpVec, coeff: Rat = 1) -> "QTScalar":
        vec = tuple(vec)
        return cls(len(vec), [(vec, coeff)])

    # -- evaluation functionals --------------------------------------------

    def eval_one(self) -> Fraction:
        """Value at the classical point: every eta-monomial becomes 1."""
        return Fraction(sum(c for _, c in self.terms))

    def deriv_one(self) -> "MuPoly":
        """Derivative at the classical point.

        Since each eta_i takes the value 1 there, the product rule gives
        ``d/dt eta^v |_1 = v_1 mu_1 + ... + v_r mu_r``; the result is always
        mu-linear.  Built in stored form: the unit vectors e_{r-1} < ... < e_0
        in tuple order, each with its nonzero sum of ``c * v_i``.
        """
        rank, terms = self.rank, self.terms
        return MuPoly._canonical(rank, [
            (unit_vec(rank, i), _coefficient(d)) for i in range(rank - 1, -1, -1)
            if (d := sum([c * v[i] for v, c in terms]))])

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

    @staticmethod
    def _monomial_str(vec: ExpVec) -> str:
        return "eta^[" + ",".join(map(str, vec)) + "]" if any(vec) else ""


class MuPoly(SparseScalar):
    """Polynomial over the rationals in the derivative symbols mu_1 .. mu_r."""

    __slots__ = ()
    laurent = False

    @classmethod
    def variable(cls, rank: int, i: int) -> "MuPoly":
        """The symbol mu_{i+1} (0-based slot ``i``)."""
        return cls(rank, [(unit_vec(rank, i), 1)])

    @classmethod
    def linear(cls, vec: ExpVec) -> "MuPoly":
        """The linear form ``v . mu = v_1 mu_1 + ... + v_r mu_r``."""
        rank = len(vec)
        return cls(rank, [(unit_vec(rank, i), e) for i, e in enumerate(vec) if e])

    def constant_part(self) -> Fraction:
        for v, c in self.terms:
            if not any(v):
                return Fraction(c)
        return Fraction(0)

    def linear_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient vector (c_1 .. c_r) of a mu-linear form without
        constant term; raises if higher-degree or constant terms appear.
        The exponents are nonnegative, so a term is linear exactly when they
        sum to 1, and its coefficient goes to the slot holding the 1."""
        return tuple(map(Fraction, self._linear_row()))

    def _linear_row(self) -> list:
        """``linear_coefficients`` in stored form: ints where integral."""
        coeffs = [0] * self.rank
        for v, c in self.terms:
            if sum(v) != 1:
                raise ValueError(f"{self} is not a homogeneous linear mu-form")
            coeffs[v.index(1)] = c
        return coeffs

    subs = SparseScalar.eval_at

    @staticmethod
    def _monomial_str(vec: ExpVec) -> str:
        return "*".join(
            f"mu{k + 1}" if e == 1 else f"mu{k + 1}^{e}" for k, e in enumerate(vec) if e
        )
