"""The two-generator skew-commutative demo algebra (quantum plane).

One rank-1 parameter symbol eta_1 realized by the identity interpolation
e_1 = t (so its derivative symbol mu_1 takes the value 1).  Basis monomials
are the ordered words y^a x^b; the whole multiplication table is

    (y^a x^b) (y^c x^d) = eta_1^{b c} y^{a+c} x^{b+d},

equivalently the single relation x y = eta_1 y x.  This is not an instance
of the Weyl family (no quadratic correction term), so it gets its own tiny
implementation on top of the scalar ring; the semiclassical limit machinery
applies verbatim and yields the classical bracket {x, y} = x y.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .scalars import MuPoly, QTScalar, add_term

PlaneMonomial = tuple[int, int]  # (y exponent, x exponent)


class PlaneElement:
    """Finite map from ordered monomials y^a x^b to rank-1 scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, Mapping):
            terms = terms.items()
        acc: dict[PlaneMonomial, QTScalar] = {}
        for m, c in terms:
            m = (int(m[0]), int(m[1]))
            if m[0] < 0 or m[1] < 0:
                raise ValueError(f"negative exponent in monomial {m}")
            if not isinstance(c, QTScalar):
                c = QTScalar.constant(1, c)
            add_term(acc, m, c)
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

    def __setattr__(self, name, value):
        raise AttributeError("PlaneElement is immutable")

    @classmethod
    def one(cls) -> "PlaneElement":
        return cls({(0, 0): QTScalar.one(1)})

    @classmethod
    def y(cls) -> "PlaneElement":
        return cls({(1, 0): QTScalar.one(1)})

    @classmethod
    def x(cls) -> "PlaneElement":
        return cls({(0, 1): QTScalar.one(1)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return PlaneElement(list(self.terms) + list(other.terms))

    def __neg__(self):
        return PlaneElement([(m, -c) for m, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QTScalar)):
            if not isinstance(other, QTScalar):
                other = QTScalar.constant(1, other)
            return PlaneElement([(m, c * other) for m, c in self.terms])
        out: dict[PlaneMonomial, QTScalar] = {}
        for (a, b), ca in self.terms:
            for (c, d), cb in other.terms:
                add_term(out, (a + c, b + d), ca * cb * QTScalar.monomial((b * c,)))
        return PlaneElement(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, PlaneElement):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in self.terms:
            mono = "*".join(
                ([f"y^{a}" if a > 1 else "y"] if a else [])
                + ([f"x^{b}" if b > 1 else "x"] if b else [])
            )
            cs = str(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)


def relation_holds() -> bool:
    """x * y = eta_1 * (y * x), the defining skew-commutation."""
    x, y = PlaneElement.x(), PlaneElement.y()
    return x * y == (y * x) * QTScalar.monomial((1,))


def semiclassical_bracket_xy() -> dict[PlaneMonomial, MuPoly]:
    """{x, y} via the exact (t-1)-limit of x y - y x, mu_1 kept formal."""
    x, y = PlaneElement.x(), PlaneElement.y()
    comm = x * y - y * x
    out: dict[PlaneMonomial, MuPoly] = {}
    for m, c in comm.terms:
        d = c.limit_div()
        if d:
            out[m] = d
    return out


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
