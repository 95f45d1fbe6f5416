"""The straightening engine against an oracle that shares no code with it.

``perfbench/oracle.py`` straightens free words by rewriting the leftmost
out-of-order pair with the five defining relations: no cache, no closed
form and no qweyl import.  It is loaded from its file, not copied, so the
benchmark and these tests check against one copy.  The operands lean on
same-index pairs ``x_i^a ... * y_i^b ...``, where the engine takes its
closed-form step.  hypothesis is installed where the tests run but is not a
declared dependency, so the module is skipped without it.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qweyl import QTScalar, WeylElement, WeylParams  # noqa: E402

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# few examples, so the module stays fast; no example database is written
FAST = settings(max_examples=40, deadline=None, database=None)


def oracle_product(a: WeylElement, b: WeylElement) -> dict:
    p = a.params
    return oracle.naive_product(
        p.n, p.r, p.qexp, p.lexp,
        [(m, dict(c.terms)) for m, c in a.terms],
        [(m, dict(c.terms)) for m, c in b.terms],
    )


def engine_product(a: WeylElement, b: WeylElement) -> dict:
    return {m: dict(c.terms) for m, c in (a * b).terms}


@st.composite
def instances(draw):
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    vecs = st.tuples(*[st.integers(-2, 2)] * r)
    qexp = tuple(draw(vecs.filter(any)) for _ in range(n))
    lexp = [[(0,) * r] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(vecs)
            lexp[i][j] = v
            lexp[j][i] = tuple(-e for e in v)
    return WeylParams(n, r, qexp, tuple(map(tuple, lexp)))


@st.composite
def same_index_operands(draw):
    """(a, b) with x_i powers in a's terms and y_i powers on the same
    pairs in b's, each term topped up with any generators to degree <= 3.

    The oracle's time grows steeply with the degree: x3^3 * y3^3 takes
    0.07 s on an n = 3 instance, x3^4 * y3^4 4.4 s."""
    params = draw(instances())
    n, r = params.n, params.r
    pairs = draw(st.lists(st.integers(0, n - 1), max_size=3))
    coeffs = st.builds(
        QTScalar.monomial,
        st.tuples(*[st.integers(-1, 1)] * r),
        st.sampled_from([1, -1, 2, Fraction(1, 2)]),
    )

    def element(kind):  # kind 1: x_i, 0: y_i
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            m = [0] * (2 * n)
            for i in pairs:
                m[2 * i + kind] += 1
            extra = st.integers(0, 2 * n - 1)
            for slot in draw(st.lists(extra, max_size=3 - len(pairs))):
                m[slot] += 1
            terms.append((tuple(m), draw(coeffs)))
        return WeylElement(params, terms)

    return element(1), element(0)


@FAST
@given(same_index_operands())
def test_products_match_the_oracle(operands):
    a, b = operands
    assert engine_product(a, b) == oracle_product(a, b)


def test_same_index_ladder_matches_the_oracle(params3):
    """x_i^a * y_i^b for a, b <= 4 on the pairs with at most one pair below."""
    for i in (1, 2):
        x, y = WeylElement.generator(params3, "x", i), WeylElement.generator(params3, "y", i)
        for a in range(5):
            for b in range(5):
                assert engine_product(x**a, y**b) == oracle_product(x**a, y**b), (i, a, b)
