import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qweyl import cli
from qweyl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_default(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "instance ok" in out


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "x1*y1")
    assert code == 0
    assert out.strip() == "(-1 + eta^[1,0]) + eta^[1,0]*y1*x1"


def test_nf_json(capsys):
    code, out, _ = run(capsys, "--json", "nf", "x2*y1")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "nf"
    assert record["result"] == "eta^[2,0]*y1*x2"
    assert record["instance"]["n"] == 2


def test_comm_and_limit(capsys):
    code, out, _ = run(capsys, "comm", "x1", "y1")
    assert code == 0
    assert "eta^[1,0]" in out
    code, out, _ = run(capsys, "limit", "x1*y1")
    assert code == 0
    assert out.strip() == "y1*x1"
    code, out, _ = run(capsys, "limit", "z2")
    assert code == 0
    assert out.strip() == "1 + y1*x1 + y2*x2"


def test_bracket_and_scl(capsys):
    code, out, _ = run(capsys, "bracket", "x1", "y1")
    assert code == 0
    assert out.strip() == "mu1 + mu1*y1*x1"
    code, out, _ = run(capsys, "scl", "x1", "y1")
    assert code == 0
    assert out.strip() == "mu1 + mu1*y1*x1; CONSISTENT"


def test_admissible(capsys):
    code, out, _ = run(capsys, "admissible", "1")
    assert code == 0
    assert "admissible sets of M_1: 2" in out
    code, out, _ = run(capsys, "--json", "admissible", "2")
    assert json.loads(out)["count"] == 6


def test_stratum_and_center(capsys):
    code, out, _ = run(capsys, "stratum", "z1")
    assert code == 0
    assert "generators: y1, z2, y2" in out
    code, out, _ = run(capsys, "center", "")
    assert code == 0
    assert "center lattice rank" in out


def test_stratum_rejects_non_admissible(capsys):
    code, _, err = run(capsys, "stratum", "z2,y2")
    assert code == 2
    assert "not admissible" in err


@pytest.mark.parametrize("tspec", ["z\u00b2", "q1", "z1,,z2"])
def test_stratum_rejects_bad_marker(capsys, tspec):
    code, out, err = run(capsys, "stratum", tspec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad marker") and err.count("\n") == 1


def test_example_quantum_plane(capsys):
    code, out, _ = run(capsys, "example", "quantum-plane")
    assert code == 0
    assert "xy=tyx" in out
    assert "{x,y}=xy" in out


def test_maltsiniotis(capsys):
    code, out, _ = run(capsys, "maltsiniotis", "(eta^[1,0]-1)*y1")
    assert code == 0
    assert out.strip() == "y1"
    code, _, err = run(capsys, "maltsiniotis", "y1")
    assert code == 2
    assert "localization" in err.lower()


def test_maltsiniotis_relation_is_zero(capsys):
    expr = "x2*y2 - eta^[0,1]*y2*x2 - 1 - (eta^[1,0]-1)*y1*x1"
    code, out, _ = run(capsys, "maltsiniotis", expr)
    assert code == 0
    assert out.strip() == "0"


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "y1 +")
    assert code == 2
    assert "column" in err


def test_unknown_generator_exit_code(capsys):
    code, _, err = run(capsys, "nf", "y9")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "quantum-plane")
    assert code == 0
    assert "PASS quantum-plane" in out
    assert "OK: 1/1 suites" in out


def test_verify_json_structure(capsys):
    code, out, _ = run(
        capsys, "--json", "verify", "--suite", "admissible-counts", "--seed", "7"
    )
    assert code == 0
    record = json.loads(out)
    assert record["result"] is True
    assert record["checks"][0]["name"] == "admissible-counts"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_deterministic_under_seed(capsys):
    args = ("--json", "verify", "--suite", "interpolation", "--seed", "99")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_config_file(tmp_path, capsys):
    config = {
        "n": 1,
        "r": 1,
        "q_exponents": [[1]],
        "lambda_exponents": [[[0]]],
        "concrete": {"q": "2", "eta": ["3"], "mu": ["1"]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "--config", str(path), "nf", "x1*y1")
    assert code == 0
    assert out.strip() == "(-1 + eta^[1]) + eta^[1]*y1*x1"
    code, out, _ = run(capsys, "--config", str(path), "validate")
    assert code == 0
    assert "t^2 - t + 1" in out


def test_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"n\": 2}")
    code, _, err = run(capsys, "--config", str(path), "validate")
    assert code == 2


BASE_CONFIG = {
    "n": 1,
    "r": 1,
    "q_exponents": [[1]],
    "lambda_exponents": [[[0]]],
    "concrete": {"q": "2", "eta": ["3"], "mu": ["1"]},
}


@pytest.mark.parametrize(
    "change",
    [
        {"concrete": {"eta": ["3"], "mu": ["1"]}},
        {"concrete": {"q": "2", "mu": ["1"]}},
        {"concrete": {"q": "2", "eta": ["3"]}},
        {"concrete": {"q": "2", "eta": "3", "mu": ["1"]}},
        {"concrete": {"q": "2", "eta": ["3"], "mu": 1}},
        {"concrete": ["2", "3", "1"]},
        {"n": "two"},
        {"n": 1.5},
        {"r": None},
        {"r": [1]},
        {"lambda_exponents": [[[]]]},
        {"q_exponents": [[1.5]]},
        {"q_exponents": [["1_0"]]},
        {"lambda_exponents": [[[0.9]]]},
        {"n": " 1"},
        {"r": "1 "},
        {"concrete": {"q": "2", "eta": [True], "mu": ["1"]}},
        {"concrete": {"q": "2", "eta": ["3"], "mu": [False]}},
    ],
)
def test_malformed_config_is_a_usage_error(tmp_path, capsys, change):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, **change)))
    code, out, err = run(capsys, "--config", str(path), "validate")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_nested_parentheses_limit(capsys):
    code, out, _ = run(capsys, "nf", "(" * 200 + "x1" + ")" * 200)
    assert code == 0
    assert out.strip() == "x1"
    for depth in (201, 1000):
        code, out, err = run(capsys, "nf", "(" * depth + "x1" + ")" * depth)
        assert code == 2
        assert out == ""
        assert "nested deeper than 200" in err and err.count("\n") == 1


def test_leading_minus_round_trip(capsys):
    code, out, _ = run(capsys, "nf", "x2*y1*x1 - 5/12*x2")
    assert code == 0
    printed = out.strip()
    assert printed.startswith("-5/12*x2")
    code, out, _ = run(capsys, "nf", "--", printed)
    assert code == 0
    assert out.strip() == printed


@pytest.mark.parametrize("signs", [1000, 10000])
def test_long_unary_minus_chain(capsys, signs):
    code, out, _ = run(capsys, "nf", "x1+" + "-" * signs + "x1")
    assert code == 0
    assert out.strip() == "2*x1"


def _raise_internal(args, params, config):
    raise RuntimeError("boom")


def test_unexpected_error_exits_3(monkeypatch, capsys):
    broken = dataclasses.replace(cli.COMMANDS["nf"], handler=_raise_internal)
    monkeypatch.setitem(cli.COMMANDS, "nf", broken)
    code, out, err = run(capsys, "nf", "x1")
    assert code == 3
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"
    code, out, err = run(capsys, "--json", "nf", "x1")
    assert code == 3
    assert err == ""
    assert json.loads(out) == {"command": "nf", "error": "internal error: RuntimeError: boom"}


def test_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "semiclassical_bracket", lambda a, b: a)
    code, out, _ = run(capsys, "--json", "scl", "x1", "y1")
    assert code == 1
    assert json.loads(out)["checks"] == [{"name": "bracket-consistency", "passed": False}]


RECORD = {"command", "instance", "result", "checks"}

# every command's arguments on the built-in config, and its documented record keys
RECORD_SHAPES = {
    "validate": ([], RECORD),
    "nf": (["x1*y1"], RECORD),
    "comm": (["x1", "y1"], RECORD),
    "bracket": (["x1", "y1"], RECORD),
    "limit": (["z2"], RECORD),
    "scl": (["x1", "y1"], RECORD),
    "admissible": (["2"], {"command", "n", "count", "result"}),
    "stratum": (["z1"], RECORD),
    "center": ([""], RECORD),
    "verify": (["--suite", "quantum-plane"], {"command", "seed", "result", "checks"}),
    "example": (["quantum-plane"], {"command", "result", "checks"}),
    "maltsiniotis": (["(eta^[1,0]-1)*y1"], RECORD),
}


def test_record_shapes_cover_every_command():
    assert set(RECORD_SHAPES) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(RECORD_SHAPES))
def test_json_record_shape(capsys, command):
    argv, keys = RECORD_SHAPES[command]
    code, out, _ = run(capsys, "--json", command, *argv)
    assert code == 0
    record = json.loads(out)
    assert record["command"] == command
    assert set(record) == keys


def test_parser_keeps_no_state_between_calls(capsys):
    """The parser is built once per process; an earlier call's options and a
    rejected argv must not leak into a later call."""
    argv = ["--json", "verify", "--suite", "quantum-plane"]
    code, _, _ = run(capsys, "--seed", "5", "verify", "--suite", "admissible-counts",
                     "--seed", "9")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "qweyl.cli", *argv], env=_cli_env(),
                           capture_output=True, text=True, timeout=120)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out)["seed"] == cli.DEFAULT_SEED


def _cli_env() -> dict:
    """The environment for running the CLI from this checkout in a subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_with_stdout(stdout) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qweyl.cli", "admissible", "3"],
                          env=_cli_env(), stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


def _assert_write_error(proc: subprocess.CompletedProcess) -> None:
    """An output failure exits 3 with one error line and no traceback."""
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


def test_closed_stdout_pipe_exits_3():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_with_stdout(write_end)
    finally:
        os.close(write_end)
    _assert_write_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exits_3():
    with open("/dev/full", "w") as full:
        _assert_write_error(_run_with_stdout(full))
