"""`--m-max 5` extends the gf suite to m = 5, and the new checks pass."""

import json

from gtbasis.verify import build_checks


def _gf_checks(m_max):
    return {(c.name, json.dumps(c.params, sort_keys=True)): c
            for c in build_checks(["gf"], m_max, 4, 3)}


def test_m_max_5_adds_only_the_m5_gf_checks():
    below, at5 = _gf_checks(4), _gf_checks(5)
    assert set(below) <= set(at5)
    assert set(at5) - set(below) == {
        (name, json.dumps({"m": 5, "norm": norm, "points": 20}, sort_keys=True))
        for name in ("gf.harm_closed_vs_series", "gf.mon_closed_vs_series",
                     "gf.harm_recurrence_step")
        for norm in ("factorial", "plain")
    }


def test_m5_gf_checks_pass():
    checks = [c for c in _gf_checks(5).values() if c.params.get("m") == 5]
    results = [c.run(0) for c in checks]
    assert [r.witness for r in results if r.status != "pass"] == []
    assert len(results) == 6
