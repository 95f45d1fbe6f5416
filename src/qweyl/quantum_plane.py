"""The two-generator skew-commutative demo algebra (quantum plane).

One rank-1 parameter symbol eta_1 realized by the identity interpolation
e_1 = t (so its derivative symbol mu_1 takes the value 1).  Basis monomials
are the ordered words y^a x^b; the whole multiplication table is

    (y^a x^b) (y^c x^d) = eta_1^{b c} y^{a+c} x^{b+d},

equivalently the single relation x y = eta_1 y x.  This is not an instance
of the Weyl family, but runs on the straightening engine of the n = 1 shape
``PLANE`` with f_s = 0 in place of q^s - 1 (no z-term).  The semiclassical
limit of :mod:`qweyl.poisson` applies verbatim and yields {x, y} = x y.
"""

from __future__ import annotations

from .poisson import semiclassical_bracket
from .scalars import MuPoly, QTScalar
from .weyl import (PbwElement, PbwMonomial, StraighteningEngine, WeylElement, WeylParams,
                   element_to_str)

# n = 1, r = 1, q_1 = eta_1; never the Weyl engine of this instance
PLANE = WeylParams(1, 1, ((1,),), (((0,),),))


def plane_monomial_str(m: PbwMonomial) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip("yx", m) if e)


class PlaneElement(PbwElement):
    """Finite map from ordered monomials y^a x^b to rank-1 scalars, in
    tuple order of (a, b); not a ``WeylElement``, so the two never mix."""

    __slots__ = ()
    scalar_type = QTScalar
    _order = staticmethod(sorted)
    # x^s y = q^s y x^s, on an engine built per product (about 10 us) and freed
    _engine = staticmethod(lambda params: StraighteningEngine(
        1, 1, lambda v: (v, 1), params.qexp, params.lexp, closed=lambda s: ()))
    _product = WeylElement._product

    @classmethod
    def y(cls) -> "PlaneElement":
        return cls.generator(PLANE, "y", 1)

    @classmethod
    def x(cls) -> "PlaneElement":
        return cls.generator(PLANE, "x", 1)

    def __str__(self) -> str:
        return element_to_str(self, plane_monomial_str)


def relation_holds() -> bool:
    """x * y = eta_1 * (y * x), the defining skew-commutation."""
    x, y = PlaneElement.x(), PlaneElement.y()
    return x * y == (y * x) * QTScalar.monomial((1,))


def semiclassical_bracket_xy() -> dict[PbwMonomial, MuPoly]:
    """{x, y} via the exact (t-1)-limit of x y - y x, mu_1 kept formal."""
    return dict(semiclassical_bracket(PlaneElement.x(), PlaneElement.y()).terms)


def demo_lines() -> list[str]:
    """The worked example: relation and classical bracket, with e_1 = t
    (hence mu_1 = 1) substituted for display.  Both are checked first, also
    under ``python -O``; a failure raises ``RuntimeError``."""
    if not relation_holds():
        raise RuntimeError("quantum plane: x*y != eta1*y*x")
    if semiclassical_bracket_xy() != {(1, 1): MuPoly.variable(1, 0)}:
        raise RuntimeError("quantum plane: {x,y} != mu1*x*y")
    return [
        "quantum plane: generators x, y with one parameter eta1 = t",
        "relation: xy=tyx",
        "semiclassical bracket (mu1 formal): {x,y} = mu1*x*y",
        "with e1 = t (so mu1 = 1): {x,y}=xy",
    ]
