"""A check that raises becomes a failed result; the rest of the run goes on."""

import json

import pytest

from gtbasis import PLAIN, verify


def _install_raising_partial_sum(monkeypatch):
    """gf_mon_partial_sum raises at m=3 in the plain normalization only."""
    partial_sum = verify.gf_mon_partial_sum

    def raising(m, x, h, order, normalization="factorial"):
        if m == 3 and normalization == PLAIN:
            raise RuntimeError("series evaluation broke")
        return partial_sum(m, x, h, order, normalization)

    monkeypatch.setattr(verify, "gf_mon_partial_sum", raising)


@pytest.mark.parametrize("seed", [1, 3])
def test_raising_check_fails_with_witness_and_others_run(monkeypatch, seed):
    """The failing set is the same whatever seed draws the sample points."""
    _install_raising_partial_sum(monkeypatch)
    report, _ = verify.run_verify(("gf",), m_max=3, seed=seed)
    assert report["seed"] == seed
    failed = {(c["name"], json.dumps(c["params"], sort_keys=True)): c["witness"]
              for c in report["checks"] if c["status"] != "pass"}
    witness = "RuntimeError: series evaluation broke"
    assert failed == {
        ("gf.mon_closed_vs_series", '{"m": 3, "norm": "plain", "points": 20}'): witness,
        ("gf.mon_m3_closed_formula", '{"norm": "plain"}'): witness,
    }
    assert len(report["checks"]) == len(verify.build_checks(["gf"], 3, 4, 3))
    assert report["counts"]["fail"] == 2
    assert report["overall"] == "fail"
