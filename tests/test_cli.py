"""CLI contract: flags, output formats, exit codes, report determinism."""

import json
import subprocess
import sys

from gtbasis import BasisIndex, MonIndex, MPoly, embedding_X, harm_basis, mon_basis
from gtbasis.hseries import HSeries


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gtbasis", *args],
                          capture_output=True, text=True)


def test_basis_harm_text():
    proc = run_cli("basis", "--kind", "harm", "--m", "3", "--k", "1,1", "--sign", "+")
    assert proc.returncode == 0
    assert "3*x1*x3" in proc.stdout and "3i*x2*x3" in proc.stdout


def test_basis_mon_text():
    proc = run_cli("basis", "--kind", "mon", "--m", "3", "--k", "0,1")
    assert proc.returncode == 0
    assert "2*x3" in proc.stdout
    assert "e13*x1" in proc.stdout and "e23*x2" in proc.stdout


def test_basis_constant():
    proc = run_cli("basis", "--kind", "harm", "--m", "2", "--k", "0")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_basis_json_round_trip():
    proc = run_cli("basis", "--kind", "harm", "--m", "3", "--k", "2,1",
                   "--sign=-", "--norm", "plain", "--format", "json")
    assert proc.returncode == 0
    poly = MPoly.from_json(json.loads(proc.stdout))
    assert poly == harm_basis(BasisIndex((2, 1), -1, "plain"))


def test_basis_invalid_index_exits_2():
    proc = run_cli("basis", "--kind", "harm", "--m", "3", "--k", "1,1,1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_genfun_eval_known_value():
    proc = run_cli("genfun", "eval", "--kind", "harm", "--m", "3",
                   "--x", "0,0,0.5", "--h", "0,0.5")
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - 4.0 / 3.0) < 1e-12


def test_genfun_eval_unbounded_h2():
    proc = run_cli("genfun", "eval", "--kind", "harm", "--m", "2",
                   "--x", "0,0", "--h", "7")
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == 1.0


def test_genfun_eval_domain_violation_exits_3():
    proc = run_cli("genfun", "eval", "--kind", "harm", "--m", "3",
                   "--x", "0,0,0.5", "--h", "0,0.6")
    assert proc.returncode == 3
    proc = run_cli("genfun", "eval", "--kind", "harm", "--m", "3",
                   "--x", "0,0,0.5", "--h", "0,0.6", "--unsafe-domain")
    assert proc.returncode == 0


def test_genfun_eval_singularity_exits_4():
    proc = run_cli("genfun", "eval", "--kind", "harm", "--m", "3",
                   "--x", "0,0,1", "--h", "0,1", "--unsafe-domain")
    assert proc.returncode == 4


def test_genfun_eval_mon_json():
    proc = run_cli("genfun", "eval", "--kind", "mon", "--m", "3",
                   "--x", "0,0,0.5", "--h", "0,0.5", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    scalar = [t for t in data["terms"] if t["blade"] == 0]
    assert abs(scalar[0]["value"] - 16.0 / 9.0) < 1e-12


def test_genfun_series_mon():
    proc = run_cli("genfun", "series", "--kind", "mon", "--m", "3", "--order", "2")
    assert proc.returncode == 0
    series = HSeries.from_json(json.loads(proc.stdout))
    assert series.coefficient((0, 1)) == embedding_X(3, 0, 1)
    assert series.coefficient((1, 1)) == mon_basis(MonIndex((1, 1)))


def test_verify_report_is_deterministic():
    args = ("verify", "--suite", "lemmas", "--seed", "42", "--m-max", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["overall"] == "pass"
    assert report["counts"]["fail"] == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_pde_suite_passes():
    proc = run_cli("verify", "--suite", "pde", "--m-max", "3", "--deg-max", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    names = {c["name"] for c in report["checks"]}
    assert "pde.harm_laplacian_zero" in names
    assert "pde.mon_dirac_zero" in names
    assert "pde.dirac_squared_is_laplacian" in names


def test_verify_checks_are_sorted():
    proc = run_cli("verify", "--suite", "extract", "--m-max", "3")
    report = json.loads(proc.stdout)
    keys = [(c["name"], json.dumps(c["params"], sort_keys=True))
            for c in report["checks"]]
    assert keys == sorted(keys)


def test_unknown_suite_rejected():
    proc = run_cli("verify", "--suite", "bogus")
    assert proc.returncode == 2
