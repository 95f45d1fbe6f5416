"""One-off reference figures for the benchmark's README.

    python3 perfbench/reference.py            # about three minutes
    python3 perfbench/reference.py --quick    # skips the x2^15*y2^15 rung

Each figure is one measurement, not a median: these are orders of
magnitude for the algorithmic blow-ups the workloads stay clear of, not
metrics with a bound.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qweyl import (PoissonElement, WeylElement, enumerate_admissible,  # noqa: E402
                   pb_bracket, semiclassical_bracket, torus_matrix_p, torus_matrix_q)
from qweyl.cli import DEFAULT_CONFIG, params_from_config  # noqa: E402
from qweyl.suites import ALL_SUITES, DEFAULT_SEED, random_params, run_suites  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def gen_sum(p):
    out = WeylElement.zero(p)
    for i in range(1, p.n + 1):
        out = out + WeylElement.generator(p, "y", i) + WeylElement.generator(p, "x", i)
    return out


def dense(p, rng, count, degree):
    """``count`` distinct monomials of degree 1..degree, coefficients 1..3."""
    monos = set()
    while len(monos) < count:
        m = [0] * (2 * p.n)
        for _ in range(rng.randint(1, degree)):
            m[rng.randrange(2 * p.n)] += 1
        monos.add(tuple(m))
    return PoissonElement(p, [(m, rng.randint(1, 3)) for m in sorted(monos)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    quick = parser.parse_args().quick

    print("## qweyl verify (default seed)")
    total, _ = timed(lambda: run_suites(None, DEFAULT_SEED))
    print(f"verify total: {total:.2f} s")
    for name in ALL_SUITES:
        secs, (res,) = timed(lambda: run_suites([name], DEFAULT_SEED))
        print(f"  {name}: {secs:.3f} s ({'PASS' if res.passed else 'FAIL'})")

    print("## x2^k * y2^k on the built-in instance")
    for k in (5, 10) if quick else (5, 10, 15):
        q = params_from_config(DEFAULT_CONFIG)  # fresh engine cache per rung
        x, y = WeylElement.generator(q, "x", 2), WeylElement.generator(q, "y", 2)
        lhs, rhs = x ** k, y ** k
        secs, prod = timed(lambda: lhs * rhs)
        print(f"  k={k}: {secs:.3f} s, {len(prod.terms)} terms")

    print("## (sum of generators)^5, instances random_params(Random(1), n, 2) in order")
    rng = random.Random(1)
    for n in (2, 3, 4):
        p = random_params(rng, n, 2)
        s = gen_sum(p)
        secs, out = timed(lambda: s ** 5)
        print(f"  n={n}: {secs:.3f} s, {len(out.terms)} terms")

    print("## dense n = 4 bracket: 30 terms of degree <= 3 with 20 of degree <= 2")
    rng = random.Random(1)
    p = random_params(rng, 4, 2)
    a, b = dense(p, rng, 30, 3), dense(p, rng, 20, 2)
    secs, br = timed(lambda: pb_bracket(a, b))
    print(f"  pb_bracket: {secs:.3f} s, {len(br.terms)} terms")
    lift = [WeylElement(p, [(m, c.constant_part()) for m, c in e.terms]) for e in (a, b)]
    secs, scl = timed(lambda: semiclassical_bracket(*lift))
    print(f"  semiclassical_bracket: {secs:.3f} s, agrees: {scl == br}")

    print("## stratum torus matrices over every n = 5 stratum")
    p = random_params(random.Random(1), 5, 2)
    strata = enumerate_admissible(5)
    secs, _ = timed(lambda: [torus_matrix_p(p, T) for T in strata])
    print(f"  torus_matrix_p: {secs:.3f} s over {len(strata)} strata")
    secs, _ = timed(lambda: [torus_matrix_q(p, T) for T in strata])
    print(f"  torus_matrix_q: {secs:.3f} s")


if __name__ == "__main__":
    main()
