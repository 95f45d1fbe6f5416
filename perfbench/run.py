"""Benchmark for qweyl: one seeded workload, checked, with its metrics.

    python3 perfbench/run.py --workload products --seed 1 --seconds 10 --trace 0

Run from a checkout; the library is imported from ``src/`` next to this
directory.  Each workload runs a fixed, seeded list of operations whose
length is ``--seconds`` times the workload's nominal rate (``RATE``), so a
faster build does the same work in less time.  Every timed interval is
bracketed by a short calibration probe and scaled by ``CAL_REF_S`` over
the probes' time, which takes out the host's changes of CPU speed (see
``calibration_probe``); raw times go to the summary line and the result
file.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A traced run first runs the untraced benchmark in a
child process on the same inputs, to state the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Operations per second of --seconds; each list takes about that long on a
# 2-core x86 VM with Python 3.11 at the commit that introduced the benchmark.
RATE = {"products": 8, "brackets": 13, "strata": 2.4, "cli": 17}
SETUP_REPEATS = 11

# Seconds one calibration probe takes on the machine of RATE at its fast
# speed level; reported times are scaled to that speed.
CAL_REF_S = 0.0007
CAL_ROUNDS = 3
PROBE_WINDOW = 3

# The calibration product: two 3-term elements of the n = 2, r = 1 instance
# with q_1 = eta, q_2 = eta^-1, lambda_12 = eta.
CAL_INSTANCE = (2, 1, ((1,), (-1,)), (((0,), (1,)), ((-1,), (0,))))
CAL_A = [((1, 1, 0, 1), {(0,): Fraction(1, 2)}), ((0, 2, 1, 0), {(1,): Fraction(-1, 3)}),
         ((1, 0, 0, 1), {(0,): 2})]
CAL_B = [((1, 0, 1, 1), {(1,): Fraction(3, 2)}), ((0, 1, 1, 0), {(0,): -1}),
         ((2, 0, 0, 1), {(-1,): 1})]


def _calibration_round():
    """A fixed product by the word-rewriting straightener of oracle.py:
    polynomial arithmetic of the kind qweyl does (dicts of exponent tuples,
    Fraction coefficients), in code that shares nothing with qweyl."""
    return oracle.naive_product(*CAL_INSTANCE, CAL_A, CAL_B)


def calibration_probe() -> float:
    """Seconds of one calibration round, the median of CAL_ROUNDS.

    The host's CPU speed moves between levels up to 1.6x apart for seconds
    at a time, and the qweyl operations slow nearly in step with this
    round.  An interval's time times CAL_REF_S over the probes taken
    around it is then the time it would take at the reference speed
    (``scale_all``).  The garbage collector is off during the probe, so
    that the heap the library leaves behind does not change what the
    probe measures.
    """
    gc.disable()
    try:
        times = []
        for _ in range(CAL_ROUNDS):
            t0 = time.perf_counter()
            _calibration_round()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def scale_all(raw: list, probes: list) -> list:
    """Each interval's time at the reference speed.

    ``probes[i]`` is taken just before interval ``i`` and ``probes[i + 1]``
    just after it.  An interval is scaled by the median of the
    ``2 * PROBE_WINDOW`` probes nearest to it: a single probe is sometimes
    hit by a burst of a few milliseconds that its interval did not see,
    while the speed levels last seconds, longer than the window.
    """
    out = []
    for i, seconds in enumerate(raw):
        window = probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
        out.append(seconds * CAL_REF_S / statistics.median(window))
    return out


def _purge_qweyl() -> None:
    for name in [k for k in sys.modules if k == "qweyl" or k.startswith("qweyl.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, count: int):
    """Import qweyl and build the inputs SETUP_REPEATS times; keep the last.

    Returns the workload and the median set-up time, raw and scaled.
    """
    import workloads

    raw, probes = [], []
    for _ in range(SETUP_REPEATS):
        _purge_qweyl()
        gc.collect()
        probes.append(calibration_probe())
        t0 = time.perf_counter()
        importlib.import_module("qweyl")
        wl = workloads.BUILDERS[workload](seed, count)
        raw.append(time.perf_counter() - t0)
    probes.append(calibration_probe())
    return wl, statistics.median(raw), statistics.median(scale_all(raw, probes))


def timed_loop(wl, tracer=None):
    """Run every operation once; return results, per-op raw seconds, the
    calibration probes around them and the number of failures."""
    results, raw, failed = [], [], 0
    gc.collect()
    for _ in range(5):  # warm-up of the probe itself
        calibration_probe()
    probes = [calibration_probe()]
    for i in range(len(wl)):
        t0 = time.perf_counter()
        try:
            res = wl.run(i)
        except Exception:  # an operation that raises is counted, not fatal
            res = None
            failed += 1
            if failed == 1:
                traceback.print_exc(file=sys.stderr)
        raw.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        results.append(None if res is None else wl.keep(i, res))
        del res  # so that the whole result is freed before the next operation
        probes.append(calibration_probe())
    return results, raw, probes, failed


def untraced_rate(args) -> float:
    """ops_per_s of the untraced benchmark on the same inputs, in a child
    process so that no cache it fills is seen by the traced run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced reference run exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qweyl" / "__init__.py").is_file():
        print(f"error: no qweyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    count = max(1, round(args.seconds * RATE[args.workload]))
    reference = untraced_rate(args) if args.trace else None

    wl, setup_raw_s, setup_s = setup(args.workload, args.seed, count)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            results, raw, probes, failed = timed_loop(wl, tracer)
        finally:
            tracer.uninstall()
    else:
        results, raw, probes, failed = timed_loop(wl)
    times = scale_all(raw, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gen_bracket = getattr(sys.modules["qweyl.poisson"], "_gen_bracket", None)
    cache = gen_bracket.cache_info() if hasattr(gen_bracket, "cache_info") else None

    t_check = time.perf_counter()
    errors = wl.check(results)
    check_s = time.perf_counter() - t_check
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)

    ops_per_s = len(times) / sum(times)
    ms = sorted(t * 1000 for t in times)
    raw_ms = sorted(t * 1000 for t in raw)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    print(f"# {args.workload} seed={args.seed} ops={len(ms)} "
          f"scaled: timed_s={sum(ms) / 1000:.3f} p50_ms={statistics.median(ms):.3f} "
          f"p90_ms={p90:.3f} ops_per_s={ops_per_s:.3f} setup_s={setup_s:.4f}; "
          f"raw: timed_s={sum(raw_ms) / 1000:.3f} p50_ms={statistics.median(raw_ms):.3f} "
          f"setup_s={setup_raw_s:.4f}; probe_ms={statistics.median(probes) * 1000:.3f} "
          f"peak_rss_mb={peak_rss_mb:.2f} check_s={check_s:.2f}")

    OUT.mkdir(exist_ok=True)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
        hits, misses = (cache.hits, cache.misses) if cache else (0, 0)
        metrics["poisson.gen_bracket_entries"] = (cache.currsize if cache else 0, "count")
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics["poisson.gen_bracket_hit_ratio"] = (hit_ratio, "ratio")
        cli_bytes = (sum(len(text.encode()) for res in results if res for _, text in res)
                     if args.workload == "cli" else 0)
        metrics["cli.output_bytes"] = (cli_bytes, "B")
        metrics["trace.overhead_ratio"] = (reference / ops_per_s, "ratio")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "ops": len(ms)})
        print(f"# traced: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; "
              f"ops/s {ops_per_s:.3f} traced vs {reference:.3f} untraced "
              f"(overhead x{reference / ops_per_s:.2f})")
        if tracer.missing:
            print(f"# entry points not found: {', '.join(tracer.missing)}")

    record = {
        "correct": not errors,
        "attempted": len(ms),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, op_ms=[t * 1000 for t in times], raw_op_ms=[t * 1000 for t in raw],
                        probe_ms=[p * 1000 for p in probes])) + "\n", encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
