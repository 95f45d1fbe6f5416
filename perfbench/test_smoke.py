"""Smoke test of the benchmark: every workload, a handful of operations.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that no operation failed and every check passed, and that the traced
run writes its spans.  Takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_prints_its_metrics(workload, trace, section):
    record = run(workload, trace)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["attempted"] >= 1 and record["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    if trace:
        assert record["metrics"]["trace.spans"]["value"] > 0
        dump = json.loads((HERE / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
        assert len(dump["spans"]) == record["metrics"]["trace.spans"]["value"]
        assert all(end >= start for _, start, end, _ in dump["spans"])


def test_refuses_to_run_without_sources(tmp_path):
    """Outside a checkout (no src/qweyl) the benchmark exits non-zero and
    prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
