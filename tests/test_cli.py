"""CLI behavior: flags, exit codes, JSON shape and reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyperquad import cli
from hyperquad.ffield import f27_preset, format_element
from hyperquad.perfect import degenerate_next_lambda


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


CC_FLAGS = [
    "--field", "f27-paper", "--t", "1", "--k", "1",
    "--lambdas", "1", "--eps1=-u^6", "--eps2", "u^3",
]


def test_seedpair_text(capsys):
    code, out, _ = run(capsys, ["seedpair", "--p", "3", "--t", "1", "--k", "1"])
    assert code == 0
    assert "v     = [1, -1]" in out
    assert "Pk    = T^2 - 1" in out
    assert "FAIL" not in out


def test_seedpair_json(capsys):
    code, blob, _ = run_json(
        capsys, ["seedpair", "--p", "5", "--t", "1", "--k", "2", "--format", "json"]
    )
    assert code == 0
    assert blob["schema"] == "hyperquad/1"
    assert blob["config"]["subcommand"] == "seedpair"
    # balanced residues: 3 = -2, 1/3 = 2, -3/4 = -2, -4/3 = 2 mod 5
    assert blob["v"] == ["-2", "2", "-2", "2"]
    assert all(blob["identities"].values())
    assert blob["admissible"] == [1, 2]


def test_seedpair_rejects_inadmissible_k(capsys):
    code, _, err = run(capsys, ["seedpair", "--p", "3", "--t", "1", "--k", "2"])
    assert code == 64
    assert "usage error" in err


def test_expand_worked_example(capsys):
    code, out, _ = run(capsys, ["expand", *CC_FLAGS, "--n", "5"])
    assert code == 0
    assert "X^4" in out
    for piece in ["a_1 = T", "a_2 = u^7*T", "a_3 = u^2*T",
                  "a_4 = u^11*T", "a_5 = -u*T"]:
        assert piece in out
    assert "status: complete, confirmed: 5" in out


def test_expand_runs_up_to_the_degree_cap(capsys):
    # F_5, k = 2: a_10 has degree 651041; a_11 would need a_10^r, of degree
    # 3255205, past the cap.  The former series engine stopped at n = 10,
    # whose precision floor would have passed the cap, with exit code 3.
    flags = ["--p", "5", "--s", "1", "--t", "1", "--k", "2",
             "--lambdas", "3", "--eps1", "1", "--eps2", "3"]
    code, out, _ = run(capsys, ["expand", *flags, "--n", "10"])
    assert code == 0
    assert "a_10 = -2*T^651041 + " in out
    assert "status: complete, confirmed: 10" in out
    # the whole text, pinned: this command makes 21 FFT products and 3
    # Newton divisions, paths that no benchmark request reaches
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c64e0b627e5c3a33f40649aab9da66394c9a58f2ff0d5f621019eceec9ad2264"
    )
    code, out, _ = run(capsys, ["expand", *flags, "--n", "11"])
    assert code == 3
    assert "inconclusive: absorbing a_10^r of degree 3255205, past _DEGREE_CAP" in out


def test_verify_full_match_exit_zero(capsys):
    code, blob, _ = run_json(
        capsys, ["verify", *CC_FLAGS, "--n", "10", "--format", "json"]
    )
    assert code == 0
    assert blob["status"] == "match"
    assert blob["case"] == "III2"
    assert blob["C0"] == "1"
    assert blob["A"] == ["T", "T", "T"]
    assert blob["sequences"]["deltas"]["1"] == "u^4"
    assert blob["sequences"]["gammas"]["1"] == "u"
    assert len(blob["direct"]["quotients"]) == 10


def breakdown_flags():
    F = f27_preset()
    lam2 = degenerate_next_lambda(F, 1, 1, (F.one,), F.u**3)
    return [
        "--field", "f27-paper", "--t", "1", "--k", "1",
        "--lambdas", f"1,{format_element(lam2)}",
        "--eps1=-u^6", "--eps2", "u^3",
    ]


def test_verify_breakdown_exit_two(capsys):
    code, blob, _ = run_json(
        capsys, ["verify", *breakdown_flags(), "--n", "40", "--format", "json"]
    )
    assert code == 2
    assert blob["status"] == "mismatch"
    assert blob["failure"]["reason"] == "zero-delta"
    assert blob["failure"]["index"] == 2
    assert blob["first_mismatch"] is not None


def test_predict_breakdown_exit_two(capsys):
    code, out, _ = run(capsys, ["predict", *breakdown_flags(), "--n", "10"])
    assert code == 2
    assert "not perfect: zero-delta at index 2" in out


def test_predict_happy_path(capsys):
    code, out, _ = run(capsys, ["predict", *CC_FLAGS, "--n", "4"])
    assert code == 0
    assert "a_4 = u^11*T" in out


def test_corollary_c_single_quotient(capsys):
    code, out, _ = run(capsys, ["corollary-c", "--n", "1"])
    assert code == 0
    assert "case: III2" in out
    assert "status: match" in out


def test_corollary_c_json_has_equation(capsys):
    code, blob, _ = run_json(capsys, ["corollary-c", "--n", "5", "--format", "json"])
    assert code == 0
    assert "X^4" in blob["equation"]
    assert blob["predicted"]["quotients"] == [
        "T", "u^7*T", "u^2*T", "u^11*T", "-u*T"
    ]


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        ["verify", "--field", "f27-paper", "--t", "1",
         "--lambdas", "1", "--eps1", "u", "--eps2", "u", "--n", "3"],
    )
    assert code == 64
    assert "--k" in err


def test_field_flag_conflicts_are_usage_errors(capsys):
    base = ["--t", "1", "--k", "1", "--lambdas", "1",
            "--eps1", "u", "--eps2", "u", "--n", "2"]
    code, _, err = run(
        capsys, ["expand", "--field", "f27-paper", "--p", "3", *base]
    )
    assert code == 64
    code, _, err = run(capsys, ["expand", "--field", "f9-paper", *base])
    assert code == 64
    code, _, err = run(capsys, ["expand", "--p", "3", *base])  # missing --s
    assert code == 64


def test_bad_element_text_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        ["expand", "--field", "f27-paper", "--t", "1", "--k", "1",
         "--lambdas", "1", "--eps1", "zebra", "--eps2", "u", "--n", "2"],
    )
    assert code == 64


def test_explicit_field_construction(capsys):
    code, out, _ = run(
        capsys,
        ["expand", "--p", "3", "--s", "3", "--modulus", "1,-1,1,1",
         "--t", "1", "--k", "1", "--lambdas", "1",
         "--eps1=-u^6", "--eps2", "u^3", "--n", "5"],
    )
    assert code == 0
    assert "a_5 = -u*T" in out


def test_conjecture_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["conjecture", "--p", "3", "--depth", "3",
         "--max-log-degree", "1", "--out", str(target)],
    )
    assert code == 0
    assert "degree    1: 3/3" in out
    blob = json.loads(target.read_text())
    assert sorted(blob) == [
        "coverage", "depth", "non_power_of_two_degrees", "p", "truncated",
    ]
    assert blob["p"] == 3 and blob["depth"] == 3


def _argv_from_config(cfg):
    argv = [cfg["subcommand"]]
    for key, value in cfg.items():
        if key in ("subcommand",):
            continue
        flag = "--" + key
        argv.append(f"{flag}={value}")
    return argv


def test_json_roundtrip_from_config_echo(capsys):
    argv = ["verify", *CC_FLAGS, "--n", "8", "--format", "json"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    blob = json.loads(first)
    code2, second, _ = run(capsys, _argv_from_config(blob["config"]))
    assert code2 == 0
    a, b = json.loads(first), json.loads(second)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


@pytest.mark.parametrize("flag", ["--budget=-5", "--budget=0"])
def test_conjecture_nonpositive_budget_usage_error(capsys, flag):
    code, out, _ = run(
        capsys,
        ["conjecture", "--p", "3", "--depth", "4", "--max-log-degree", "2", flag],
    )
    assert code == 64
    assert "truncated" not in out


def test_conjecture_negative_depth_usage_error(capsys):
    code, _, err = run(
        capsys,
        ["conjecture", "--p", "3", "--depth", "-2", "--max-log-degree", "1"],
    )
    assert code == 64


@pytest.mark.parametrize(
    "p,max_log_degree",
    # 2^16 and 2^24 pass the default degree cap 4096; 13^4096/4096 has
    # more digits than Python converts to a string by default (4300)
    [(3, 16), (13, 12), (3, 24)],
)
def test_conjecture_oversized_report_usage_error(capsys, p, max_log_degree):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment
    t0 = time.monotonic()
    try:
        code, out, err = run(
            capsys,
            ["conjecture", "--p", str(p), "--depth", "1",
             "--max-log-degree", str(max_log_degree)],
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert time.monotonic() - t0 < 1.0
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_conjecture_largest_printable_report(capsys):
    code, out, _ = run(
        capsys, ["conjecture", "--p", "11", "--depth", "1", "--max-log-degree", "12"]
    )
    assert code == 0
    assert out.splitlines()[-2].startswith("degree 4096: 0/8552212041387041")


def test_cli_import_leaves_the_series_engine_out():
    # laurent is the tests' reference engine; no library module may load it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, hyperquad.cli; print('hyperquad.laurent' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
