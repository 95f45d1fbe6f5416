"""Tracing for the per-layer run, installed from outside the library.

Each entry point listed in ``ENTRY_POINTS`` is replaced by a wrapper for the
length of the traced run.  Calls above the scalar level become spans (name,
start, end, parent span); the scalar calls and element constructors, of
which there are thousands per operation, only add to per-parent totals.
Self time is a frame's duration minus the time covered by its wrapped
children, summed per layer.  Everything stays in memory until ``dump``.

Wrapping rebinds every name under which a qweyl module holds the function
(``qweyl.spectra`` imports ``pb_bracket`` by name, ``qweyl.poisson`` imports
``element_to_str``), and every alias in a class (``__radd__ = __add__``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

CLOCK = time.perf_counter

QT_METHODS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__",
              "div_exact", "eval_one", "deriv_one", "limit_div")
MU_METHODS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__")

# (module, owner class or None, attribute, layer, span?)
ENTRY_POINTS = (
    [("qweyl.scalars", "QTScalar", m, "scalars", False) for m in QT_METHODS]
    + [("qweyl.scalars", "MuPoly", m, "scalars", False) for m in MU_METHODS]
    + [
        ("qweyl.weyl", "StraighteningEngine", "mul_terms", "weyl", True),
        ("qweyl.weyl", "StraighteningEngine", "mono_mul", "weyl", False),
        ("qweyl.weyl", "WeylElement", "__init__", "weyl", False),
        ("qweyl.weyl", None, "build_engine", "weyl", False),
        ("qweyl.weyl", None, "wa_z", "weyl", False),
        ("qweyl.weyl", None, "from_maltsiniotis", "weyl", True),
        ("qweyl.weyl", None, "element_to_str", "render", True),
        ("qweyl.poisson", "PoissonElement", "__init__", "poisson", False),
        ("qweyl.poisson", None, "pb_bracket", "poisson", True),
        ("qweyl.poisson", None, "pe_div_exact", "poisson", True),
        ("qweyl.poisson", None, "gamma1", "poisson", True),
        ("qweyl.poisson", None, "semiclassical_bracket", "poisson", True),
        ("qweyl.spectra", None, "enumerate_admissible", "spectra", True),
        ("qweyl.spectra", None, "stratum_report", "spectra", True),
        ("qweyl.spectra", None, "torus_data", "spectra", True),
        ("qweyl.spectra", None, "torus_matrix_q", "spectra", True),
        ("qweyl.spectra", None, "torus_matrix_p", "spectra", True),
        ("qweyl.spectra", None, "center_lattice", "spectra", True),
        ("qweyl.spectra", None, "poisson_center_lattice", "spectra", True),
        ("qweyl.spectra", None, "integer_kernel", "spectra", True),
        ("qweyl.spectra", None, "reduce_mod_stratum", "spectra", True),
        ("qweyl.spectra", None, "check_torus_relations", "spectra", True),
        ("qweyl.spectra", "StratumReport", "to_dict", "render", True),
        ("qweyl.exprs", None, "parse_expr", "exprs.parse", True),
        ("qweyl.exprs", None, "eval_weyl", "exprs.eval", True),
        ("qweyl.exprs", None, "eval_free", "exprs.eval", True),
        ("qweyl.cli", None, "main", "cli", True),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.totals: dict = {}  # (parent span index, name) -> [calls, seconds]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict = defaultdict(float)  # per layer
        self.stats: Counter = Counter()
        self.max_coeff_terms = 0
        self.max_gen_cache = 0
        self.missing: list[str] = []
        self._engines: list = []
        self._depth: Counter = Counter()
        self._stack = [[0.0, 0.0, -1]]  # frame: start, covered by children, span index
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, layer, span, post):
        stack, spans, totals = self._stack, self.spans, self.totals
        calls, inclusive, self_time, depth = self.calls, self.inclusive, self.self_time, self._depth
        clock = CLOCK

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            if span:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent[2]
            frame = [0.0, 0.0, idx]
            stack.append(frame)
            d = depth[name]
            depth[name] = d + 1
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] = d
                dur = end - start
                parent[1] += dur
                self_time[layer] += dur - frame[1]
                calls[name] += 1
                if not d:
                    inclusive[name] += dur
                if span:
                    spans[idx] = (name, start, end, parent[2])
                else:
                    t = totals.get((idx, name))
                    if t is None:
                        totals[(idx, name)] = [1, dur]
                    else:
                        t[0] += 1
                        t[1] += dur
            if post is not None:
                post(result, args)
            return result

        return functools.wraps(fn)(wrapped)

    def _post(self, name):
        stats = self.stats
        if name.startswith(("QTScalar.", "MuPoly.")):
            def post(result, args):
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > self.max_coeff_terms:
                    self.max_coeff_terms = len(terms)
            return post
        if name in ("StraighteningEngine.mul_terms", "pb_bracket"):
            key = "weyl.result_terms" if name.endswith("mul_terms") else "poisson.result_terms"

            def post(result, args):
                stats[key] += len(result.terms if hasattr(result, "terms") else result)
            return post
        if name == "parse_expr":
            def post(result, args):
                stats["exprs.input_chars"] += len(args[0])
            return post
        if name == "build_engine":
            return lambda result, args: self._engines.append(result)
        return None

    # -- installation ------------------------------------------------------

    def install(self):
        for modname, owner, attr, layer, span in ENTRY_POINTS:
            mod = sys.modules.get(modname)
            if mod is None:  # not imported by this workload
                continue
            target = getattr(mod, owner, None) if owner else mod
            fn = getattr(target, attr, None)
            name = f"{owner}.{attr}" if owner else attr
            if fn is None:
                self.missing.append(f"{modname}.{name}")
                continue
            wrapped = self._wrap(fn, name, layer, span, self._post(name))
            if owner:
                homes = [target]
            else:
                homes = [m for k, m in list(sys.modules.items())
                         if m is not None and (k == "qweyl" or k.startswith("qweyl."))]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is fn:
                        setattr(home, key, wrapped)
                        self._undo.append((home, key, fn))

    def uninstall(self):
        for home, key, fn in reversed(self._undo):
            setattr(home, key, fn)
        self._undo.clear()

    def end_op(self):
        """Record the generator-cache size of the engines built in this op."""
        size = sum(len(getattr(e, "_gen_cache", ())) for e in self._engines)
        self.max_gen_cache = max(self.max_gen_cache, size)
        self._engines.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        c, inc, st = self.calls, self.inclusive, self.self_time
        qt = sum(v for k, v in c.items() if k.startswith("QTScalar."))
        mu = sum(v for k, v in c.items() if k.startswith("MuPoly."))
        return {
            "scalars.qt_ops": (qt, "count"),
            "scalars.mu_ops": (mu, "count"),
            "scalars.self_s": (st["scalars"], "s"),
            "scalars.max_coeff_terms": (self.max_coeff_terms, "count"),
            "weyl.mul_terms_calls": (c["StraighteningEngine.mul_terms"], "count"),
            "weyl.mono_mul_calls": (c["StraighteningEngine.mono_mul"], "count"),
            "weyl.self_s": (st["weyl"], "s"),
            "weyl.element_build_s": (inc["WeylElement.__init__"], "s"),
            "weyl.result_terms": (self.stats["weyl.result_terms"], "count"),
            "weyl.gen_cache_entries": (self.max_gen_cache, "count"),
            "poisson.pb_bracket_calls": (c["pb_bracket"], "count"),
            "poisson.pb_bracket_s": (inc["pb_bracket"], "s"),
            "poisson.element_build_s": (inc["PoissonElement.__init__"], "s"),
            "poisson.result_terms": (self.stats["poisson.result_terms"], "count"),
            "poisson.pe_div_exact_calls": (c["pe_div_exact"], "count"),
            "poisson.pe_div_exact_s": (inc["pe_div_exact"], "s"),
            "spectra.torus_matrix_p_s": (inc["torus_matrix_p"], "s"),
            "spectra.torus_matrix_q_s": (inc["torus_matrix_q"], "s"),
            "spectra.integer_kernel_calls": (c["integer_kernel"], "count"),
            "spectra.integer_kernel_s": (inc["integer_kernel"], "s"),
            "spectra.reduce_mod_stratum_calls": (c["reduce_mod_stratum"], "count"),
            "spectra.reduce_mod_stratum_s": (inc["reduce_mod_stratum"], "s"),
            "spectra.self_s": (st["spectra"], "s"),
            "exprs.parse_s": (inc["parse_expr"], "s"),
            "exprs.eval_s": (st["exprs.eval"], "s"),
            "exprs.input_chars": (self.stats["exprs.input_chars"], "count"),
            "cli.self_s": (st["cli"], "s"),
            "cli.render_s": (st["render"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }

    def dump(self, path, meta: dict) -> None:
        record = dict(meta)
        record["spans"] = [list(s) for s in self.spans]
        record["span_fields"] = ["name", "start", "end", "parent"]
        record["per_parent_totals"] = [
            [parent, name, n, secs] for (parent, name), (n, secs) in self.totals.items()
        ]
        record["per_parent_fields"] = ["parent", "name", "calls", "seconds"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
