"""Concrete interpolating quadratics and rational specialization.

Every formal parameter eta_i is realized by the unique quadratic e_i with

    e_i(q) = eta_i,    e_i(1) = 1,    e_i'(1) = mu_i

for a chosen sample point q and rational targets (eta_i, mu_i).  Plugging a
rational lambda (with every e_i(lambda) nonzero) into the coefficients then
specializes the formal algebra to a concrete one over the rationals, which
multiplies with the same straightening engine and rational structure
constants.  These specializations give numeric cross-checks of the formal
machinery; they are exact, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import QTScalar, Rat, _as_fraction, signed_sum
from .weyl import PbwMonomial, StraighteningEngine, WeylElement, WeylParams


class ParameterDomainError(ValueError):
    """The requested sample point lies outside the parameter domain."""


@dataclass(frozen=True)
class QuadPoly:
    """The quadratic a*t^2 + b*t + c with rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __call__(self, t: Rat) -> Fraction:
        t = _as_fraction(t)
        return self.a * t * t + self.b * t + self.c

    def deriv_at(self, t: Rat) -> Fraction:
        t = _as_fraction(t)
        return 2 * self.a * t + self.b

    def __str__(self) -> str:
        terms = ((self.a, "t^2"), (self.b, "t"), (self.c, ""))
        return signed_sum((coeff, mono) for coeff, mono in terms if coeff)


def build_e(q: Rat, eta: Rat, mu: Rat) -> QuadPoly:
    """Solve the 3x3 interpolation system for e(q)=eta, e(1)=1, e'(1)=mu.

    The system matrix has determinant -(q-1)^2, so the solution exists and
    is unique for every q outside {0, 1} (0 is excluded as an invalid
    sample point for the multiplicative parameters).
    """
    q, eta, mu = _as_fraction(q), _as_fraction(eta), _as_fraction(mu)
    if q in (0, 1):
        raise ParameterDomainError("sample point q must avoid 0 and 1")
    if eta == 0:
        raise ParameterDomainError("target eta value must be nonzero")
    a = ((eta - 1) - mu * (q - 1)) / (q - 1) ** 2
    b = mu - 2 * a
    c = 1 - a - b
    return QuadPoly(a, b, c)


def build_e_family(
    q: Rat, etas: Sequence[Rat], mus: Sequence[Rat]
) -> tuple[QuadPoly, ...]:
    if len(etas) != len(mus):
        raise ValueError("eta and mu target lists must have equal length")
    return tuple(build_e(q, eta, mu) for eta, mu in zip(etas, mus))


class SpecializedAlgebra:
    """The concrete algebra at a rational sample point lambda.

    Elements are plain dicts from ordered monomials to rationals; the
    relations carry the evaluated structure constants q_i(lambda) and
    lam_ij(lambda): its engine is the formal one at rank 0.
    """

    def __init__(self, params: WeylParams, lam: Rat, e_polys: Sequence[QuadPoly]):
        lam = _as_fraction(lam)
        if lam in (0, 1):
            raise ParameterDomainError("lambda must avoid 0 and 1")
        if len(e_polys) != params.r:
            raise ParameterDomainError(
                f"expected {params.r} interpolating quadratics, got {len(e_polys)}"
            )
        values = tuple(e(lam) for e in e_polys)
        for k, v in enumerate(values):
            if v == 0:
                raise ParameterDomainError(
                    f"lambda outside parameter domain: e_{k + 1}({lam}) = 0"
                )
        self.params = params
        self.lam = lam
        self.e_values = values
        self.engine = StraighteningEngine(
            params.n, 0, lambda v: ((), QTScalar.monomial(v).eval_at(values)),
            params.qexp, params.lexp,
        )

    def specialize(self, a: WeylElement) -> dict[PbwMonomial, Fraction]:
        """Evaluate every coefficient at the e-values; monomials unchanged."""
        if type(a) is not WeylElement:
            raise TypeError(f"specialize takes a WeylElement, not a {type(a).__name__}")
        if a.params != self.params:
            raise ParameterDomainError("element belongs to a different instance")
        out: dict[PbwMonomial, Fraction] = {}
        for m, c in a.terms:
            v = c.eval_at(self.e_values)
            if v:
                out[m] = v
        return out

    def mul(
        self, ta: dict[PbwMonomial, Fraction], tb: dict[PbwMonomial, Fraction]
    ) -> dict[PbwMonomial, Fraction]:
        """Product in the concrete algebra (same straightening, rational
        structure constants), on the engine's rank-0 scalars.  A key that
        is no ordered monomial of the instance raises ``ValueError``."""
        ta, tb = ([(WeylElement._monomial(self.params, m), QTScalar.constant(0, c))
                   for m, c in t.items()] for t in (ta, tb))
        return {m: c.eval_one() for m, c in self.engine.mul_terms(ta, tb).items()}


def specialize(
    a: WeylElement, lam: Rat, e_polys: Sequence[QuadPoly]
) -> dict[PbwMonomial, Fraction]:
    return SpecializedAlgebra(a.params, lam, e_polys).specialize(a)

