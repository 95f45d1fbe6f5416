"""Exact symbolic computation in multi-parameter quantized Weyl algebras,
their semiclassical (Poisson) limits, and the stratification of their
spectra: ordered-basis normal forms, commutators, limit brackets, admissible
sets, quantum-torus commutation data, and center lattices -- all over exact
rational arithmetic.

``import qweyl`` loads only the algebra and its limit: :mod:`~qweyl.scalars`,
:mod:`~qweyl.weyl` and :mod:`~qweyl.poisson`.  The strata
(:mod:`~qweyl.spectra`), the expression parser (:mod:`~qweyl.exprs`), the
specializations (:mod:`~qweyl.interp`), the quantum-plane demo
(:mod:`~qweyl.quantum_plane`) and the verification suites
(:mod:`~qweyl.suites`) load on first access to one of their names (PEP 562)."""

import sys
from importlib import import_module

from . import poisson, scalars, weyl

__version__ = "0.1.0"

# Seed of the randomized verification suites.  It lives here, not in
# qweyl.suites, so that the CLI can default to it without loading the suites.
DEFAULT_SEED = 20250808

# The public names of each module.  Those of the modules imported above are
# bound now; the others are looked up by __getattr__ on each use.
_PUBLIC = {
    "scalars": "ExpVec MuPoly NotDivisibleError QTScalar RankMismatchError",
    "weyl": """LocalizationRequiredError MaltsiniotisElement ParamsMismatchError
        PbwMonomial WeylElement WeylParams from_maltsiniotis wa_commutator wa_z""",
    "poisson": "PoissonElement gamma1 jacobiator p_z pb_bracket semiclassical_bracket",
    "spectra": """AdmissibleSet CenterLattice StratumReport
        brute_force_admissible center_lattice check_torus_relations count_admissible
        enumerate_admissible in_stratum_ideal integer_kernel is_admissible
        poisson_center_lattice reduce_mod_stratum stratum_report
        torus_matrix_p torus_matrix_q y_set""",
    "interp": """ParameterDomainError QuadPoly SpecializedAlgebra build_e
        build_e_family specialize""",
    "quantum_plane": "PlaneElement",
    "exprs": "ExprEvalError ExprSyntaxError eval_rescaled eval_weyl parse_expr",
    "suites": "ALL_SUITES SuiteResult run_suites",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
for _name, _module in _HOME.items():
    if _module in globals():
        globals()[_name] = getattr(globals()[_module], _name)
del _name, _module

__all__ = sorted([*_HOME, "DEFAULT_SEED"])


def __getattr__(name):
    # Not cached in the package's globals: each access reads the module's
    # current binding, so a wrapper set on it and removed again is not kept.
    if name in _HOME:
        module = f"{__name__}.{_HOME[name]}"
        return getattr(sys.modules.get(module) or import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
