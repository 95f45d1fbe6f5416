import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qweyl import MuPoly, QTScalar, quantum_plane, semiclassical_bracket
from qweyl.quantum_plane import (
    PLANE,
    PlaneElement,
    demo_lines,
    relation_holds,
    semiclassical_bracket_xy,
)
from qweyl.weyl import PbwElement


def test_product_rule():
    y, x = PlaneElement.y(), PlaneElement.x()
    # (y^a x^b)(y^c x^d) = eta^(b c) y^(a+c) x^(b+d)
    yx = y * x
    assert yx.terms == (((1, 1), QTScalar.one(1)),)
    xy = x * y
    assert xy.terms == (((1, 1), QTScalar.monomial((1,))),)


def test_relation():
    assert relation_holds()


def test_bracket_formal_and_numeric():
    bracket = semiclassical_bracket_xy()
    assert bracket == {(1, 1): MuPoly.variable(1, 0)}
    # e_1 = t gives mu_1 = 1, i.e. {x, y} = x y
    assert {m: d.subs([Fraction(1)]) for m, d in bracket.items()} == {
        (1, 1): Fraction(1)
    }


def test_demo_lines():
    lines = demo_lines()
    assert "relation: xy=tyx" in lines
    assert "with e1 = t (so mu1 = 1): {x,y}=xy" in lines


@pytest.mark.parametrize("broken", ["relation_holds", "semiclassical_bracket_xy"])
def test_demo_lines_raise_on_a_failed_check(monkeypatch, broken):
    monkeypatch.setattr(quantum_plane, broken, lambda: None)
    with pytest.raises(RuntimeError, match="quantum plane"):
        demo_lines()


def test_demo_check_holds_under_optimization():
    # ``python -O`` strips asserts; the failed check must still reach the
    # CLI's internal-error exit
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = (
        "import sys\n"
        "from qweyl import cli, quantum_plane\n"
        "quantum_plane.relation_holds = lambda: False\n"
        "sys.exit(cli.main(['example', 'quantum-plane']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: internal error: RuntimeError: quantum plane: x*y != eta1*y*x\n"


def test_power_monomials():
    y, x = PlaneElement.y(), PlaneElement.x()
    lhs = (x * x) * (y * y * y)
    # x^2 y^3 = eta^6 y^3 x^2
    rhs = (y * y * y) * (x * x) * QTScalar.monomial((6,))
    assert lhs == rhs


def test_plane_element_is_a_pbw_element_over_the_plane_shape():
    x = PlaneElement.x()
    assert isinstance(x, PbwElement) and x.params == PLANE
    assert x.terms == (((0, 1), QTScalar.one(1)),)
    # the term-map core accepts rational constants on either side
    assert (x + 1) - x == PlaneElement.one(PLANE)
    assert 3 - x == -(x - 3)
    assert (Fraction(1, 2) * x) * 2 == x


def test_minus_one_coefficient_prints_as_a_sign():
    # as in Weyl elements; the plane's own printer used to write -1*y*x
    y, x = PlaneElement.y(), PlaneElement.x()
    assert str(-(y * x)) == "-y*x"
    assert str(x - y) == "x + -y"
    assert str(x**3 + y + 1) == "1 + x^3 + y"  # tuple order, not the Weyl elements' degree order
    assert str(y * y * x - 2 * x * y) == "-2*eta^[1]*y*x + y^2*x"
    assert str(PlaneElement.zero(PLANE)) == "0"


def test_bracket_is_the_library_limit(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return semiclassical_bracket(a, b)

    monkeypatch.setattr(quantum_plane, "semiclassical_bracket", spy)
    assert semiclassical_bracket_xy() == {(1, 1): MuPoly.variable(1, 0)}
    assert calls == [(PlaneElement.x(), PlaneElement.y())]
