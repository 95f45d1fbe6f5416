import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qweyl import MuPoly, QTScalar, quantum_plane
from qweyl.quantum_plane import (
    PlaneElement,
    demo_lines,
    relation_holds,
    semiclassical_bracket_xy,
)


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
