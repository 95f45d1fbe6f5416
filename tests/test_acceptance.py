"""Acceptance suite: every promised identity, exact, one line per criterion.

All comparisons are zero-tolerance equalities in rational or symbolic
arithmetic.  Each criterion delegates to the corresponding verification
suite (shared with the command line's ``verify``) and prints one PASS/FAIL
line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import pytest

from qweyl import spectra, suites
from qweyl.cli import main
from qweyl.suites import ALL_SUITES, DEFAULT_SEED, SuiteResult

CRITERIA = [
    ("01", "pbw-associativity",
     "product normal forms are association-independent (>=200 triples)", 200),
    ("02", "z-relations-quantum",
     "all eleven commutation families with the z family, n=1..4", 150),
    ("03", "semiclassical-consistency",
     "table bracket of limits equals the (t-1)-limit bracket (>=200 pairs)", 200),
    ("04", "bracket-closed-forms",
     "limit brackets of generator pairs match the closed coefficient table, n<=4", 50),
    ("05", "jacobi",
     "jacobiator vanishes on >=100 random triples", 100),
    ("06", "z-relations-poisson",
     "full Poisson bracket table with the z family, n=1..4", 110),
    ("07", "torus-derivative-link",
     "stratum bracket forms equal commutation exponents dotted with mu; both antisymmetric, "
     "n=1..4", 1708),
    ("08", "center-lattices",
     "quantized and Poisson center lattices coincide and match the box oracle, n<=3", 185612),
    ("09", "admissible-counts",
     "enumerator equals brute-force filter; counts 2/6/20/68 for n=1..4", 4),
    ("10", "interpolation",
     "interpolation residuals are exactly zero; (2,3,1) gives t^2 - t + 1", 51),
    ("11", "specialization",
     "specialization is multiplicative at >=5 rational sample points", 500),
    ("12", "rescaling-relations",
     "rescaled defining relations normalize to zero, n<=3", 22),
    ("13", "quantum-plane",
     "demo relation xy = eta1 yx and limit bracket {x,y} = xy", 3),
    ("14", "torus-relations-ideal",
     "torus commutation relations hold exactly in the algebra, n<=3", 28),
]


@pytest.mark.parametrize("number,name,blurb,checks", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(number, name, blurb, checks):
    result = ALL_SUITES[name](DEFAULT_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} "
          f"({result.checks} checks; {result.detail}) -- {blurb}")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    assert result.checks == checks


def test_criteria_cover_every_suite():
    assert [c[1] for c in CRITERIA] == list(ALL_SUITES)


def _no_torus_relations_from_n2(params, T):
    return T.n < 2


def _brute_force_empty_from_n3(n):
    return [] if n >= 3 else spectra.brute_force_admissible(n)


# one injected fault per case, named in qweyl.suites, and the exact result it gives
FAULTS = [
    ("jacobiator", lambda a, b, c: True, SuiteResult("jacobi", False, 0, "failed at case 0")),
    ("relation_holds", lambda: False,
     SuiteResult("quantum-plane", False, 0, "relation fails")),
    ("check_torus_relations", _no_torus_relations_from_n2,
     SuiteResult("torus-relations-ideal", False, 2, "n=2 T={}")),
    ("brute_force_admissible", _brute_force_empty_from_n3,
     SuiteResult("admissible-counts", False, 2,
                 "n=3: enumerator 20, brute force 0, frozen 20")),
]


@pytest.mark.parametrize("target,fake,expected", FAULTS, ids=[f[0] for f in FAULTS])
def test_injected_fault_gives_exact_failure(monkeypatch, target, fake, expected):
    monkeypatch.setattr(suites, target, fake)
    assert ALL_SUITES[expected.name](3) == expected


def test_cli_reports_a_failing_suite(monkeypatch, capsys):
    monkeypatch.setattr(suites, "jacobiator", lambda a, b, c: True)
    assert main(["verify", "--suite", "jacobi"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL jacobi (0 checks) failed at case 0",
        "FAILED: 0/1 suites",
    ]
