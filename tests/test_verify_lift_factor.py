"""The lemma checks see the factor the series lift multiplies by.

`lemmas.gf_*_embedding` compares `hseries._lift_factor` with the embedding
factors, and `lift_step` multiplies by the same function.  Breaking that one
function at m = 3 must fail both the lemma checks at m = 3 and the extraction
checks that build their series through it, and nothing else.
"""

import json
from fractions import Fraction

import pytest

from gtbasis import CLIFFORD, GAUSSIAN, MPoly, hseries, verify
from gtbasis.mvpoly import radius_squared

_lift_factor = hseries._lift_factor


def _exponent_off_by_one(m, s, order, ring):
    """d_3^(1-3/2-s-1) in place of d_3^(1-3/2-s) for a harmonic lift to m = 3."""
    if m == 3 and ring == GAUSSIAN:
        s += 1
    return _lift_factor(m, s, order, ring)


def _prefactor_dropped(m, s, order, ring):
    """d_3^(-3/2-s) without its 1 + x*h_3*e_3 for a monogenic lift to m = 3."""
    if m == 3 and ring == CLIFFORD:
        c1 = MPoly.variable(m, m, ring).scale(-2)
        return hseries._binomial_coeffs(Fraction(-m, 2) - s, c1, radius_squared(m, ring), order)
    return _lift_factor(m, s, order, ring)


_HARM_LEMMAS = {("lemmas.gf_f_embedding", json.dumps({"j": j, "k_max": 8, "m": 3}))
                for j in range(4)}
_MON_LEMMAS = {("lemmas.gf_x_embedding", json.dumps({"j": j, "k_max": 8, "m": 3}))
               for j in range(4)}
_HARM_EXTRACT = {("extract.harm_series_equals_basis",
                  json.dumps({"m": 3, "norm": norm, "order": 3, "sign": sign}))
                 for norm in ("factorial", "plain") for sign in (-1, 1)}
_MON_EXTRACT = {("extract.mon_series_equals_basis",
                 json.dumps({"m": 3, "norm": norm, "order": 3}))
                for norm in ("factorial", "plain")}


@pytest.mark.parametrize("mutant, expected", [
    (_exponent_off_by_one, _HARM_LEMMAS | _HARM_EXTRACT),
    (_prefactor_dropped, _MON_LEMMAS | _MON_EXTRACT),
], ids=["harm-exponent", "mon-prefactor"])
def test_broken_lift_factor_fails_the_lemmas_and_the_extraction(monkeypatch, mutant, expected):
    monkeypatch.setattr(hseries, "_lift_factor", mutant)
    monkeypatch.setattr(verify, "_lift_factor", mutant)
    report, _ = verify.run_verify(("lemmas", "extract"), m_max=3, seed=0)
    failed = {(check["name"], json.dumps(check["params"], sort_keys=True))
              for check in report["checks"] if check["status"] != "pass"}
    assert failed == expected
    assert report["counts"]["fail"] == len(expected)
