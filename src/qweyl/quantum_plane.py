"""The two-generator skew-commutative demo algebra (quantum plane).

One rank-1 parameter symbol eta_1 realized by the identity interpolation
e_1 = t (so its derivative symbol mu_1 takes the value 1).  Basis monomials
are the ordered words y^a x^b; the whole multiplication table is

    (y^a x^b) (y^c x^d) = eta_1^{b c} y^{a+c} x^{b+d},

equivalently the single relation x y = eta_1 y x.  This is not an instance
of the Weyl family (no quadratic correction term), but y^a x^b is the
ordered monomial (a, b) of the n = 1 shape ``PLANE``, so the plane shares
that basis, the term-map core and the element printer, and keeps only its
product.  The semiclassical limit of :mod:`qweyl.poisson` applies verbatim
and yields the classical bracket {x, y} = x y.
"""

from __future__ import annotations

from .poisson import semiclassical_bracket
from .scalars import MuPoly, QTScalar, add_term
from .weyl import PbwElement, PbwMonomial, WeylParams, element_to_str

# n = 1, r = 1; only the shape is used, never the Weyl engine of its q_1
PLANE = WeylParams(1, 1, ((1,),), (((0,),),))


def plane_monomial_str(m: PbwMonomial) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip("yx", m) if e)


class PlaneElement(PbwElement):
    """Finite map from ordered monomials y^a x^b to rank-1 scalars, in
    tuple order of (a, b)."""

    __slots__ = ()
    scalar_type = QTScalar
    _sort_key = None

    @classmethod
    def y(cls) -> "PlaneElement":
        return cls.generator(PLANE, "y", 1)

    @classmethod
    def x(cls) -> "PlaneElement":
        return cls.generator(PLANE, "x", 1)

    def _product(self, other: "PlaneElement") -> "PlaneElement":
        out: dict[PbwMonomial, QTScalar] = {}
        for (a, b), ca in self.terms:
            for (c, d), cb in other.terms:
                add_term(out, (a + c, b + d), ca * cb * QTScalar.monomial((b * c,)))
        return self._from_sums(self.params, out)

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
