"""Which broken layers `verify` catches: a catalogue of mutants.

Each mutant breaks one function the way a plausible bug would, by patching a
module attribute as test_verify_checks.py does, and runs `verify` at the
defaults (seed 0, all suites).  The test pins the sorted names of the checks
that fail, one entry per failing check.  A mutant with no failing check is a
survivor: `verify` passes on a broken library.  The survivors are pinned as
an exact set, so a new survivor fails this test, and a change that makes a
check catch one moves it from SURVIVORS to CAUGHT.
"""

from dataclasses import replace

import pytest

from gtbasis import ballint, gegenbauer, verify

CHECKS_AT_DEFAULTS = 80


def _scaled(module, name, factor):
    """Patch module.name to return its value times factor(*args)."""
    original = getattr(module, name)
    return module, name, lambda *args: original(*args) * factor(*args)


def _sign_flipped(module, name, when):
    """Patch module.name to negate its value on the arguments when(*args) selects."""
    original = getattr(module, name)
    return module, name, lambda *args: -original(*args) if when(*args) else original(*args)


def _top_doubled_at_5(nu, k):
    poly = gegenbauer.gegenbauer_poly(nu, k)
    if k != 5:
        return poly
    return replace(poly, coeffs=poly.coeffs[:-1] + (2 * poly.coeffs[-1],))


# name -> () -> (module, attribute, replacement); built lazily, after the caches are cleared
MUTANTS = {
    # the rational scale S(m, d) of every all-even monomial integral
    "ballint._degree_scale * (degree + 7)":
        lambda: _scaled(ballint, "_degree_scale", lambda m, degree: degree + 7),
    "ballint.pi_power -> 0": lambda: (ballint, "pi_power", lambda m: 0),
    "verify.inner_mon doubled": lambda: _scaled(verify, "inner_mon", lambda p, q: 2),
    # neither inner_harm (blades 1 and e12) nor the scalar inner_mon pairs e1 with e2
    "ballint.blade_sign(e1, e2) negated":
        lambda: _sign_flipped(ballint, "blade_sign", lambda a, b: (a, b) == (0b01, 0b10)),
    "ballint._moment * (1 + alpha_1)":
        lambda: _scaled(ballint, "_moment", lambda alpha: 1 + alpha[0]),
    "ballint.conjugation_sign flipped on grade 2":
        lambda: _sign_flipped(ballint, "conjugation_sign", lambda mask: mask.bit_count() == 2),
    "verify.gf_value * (1 + 1e-9)":
        lambda: _scaled(verify, "gf_value", lambda nu, t, h: 1 + 1e-9),
    "verify.gegenbauer_poly top coefficient doubled at k = 5":
        lambda: (verify, "gegenbauer_poly", _top_doubled_at_5),
}

SURVIVORS = {
    "ballint._degree_scale * (degree + 7)",
    "ballint.pi_power -> 0",
    "verify.inner_mon doubled",
    "ballint.blade_sign(e1, e2) negated",
}

# mutant -> sorted names of the failing checks, one entry per failing check
CAUGHT = {
    "ballint._moment * (1 + alpha_1)":
        ["ortho.harm_pairwise"] * 3 + ["ortho.mon_pairwise"] * 2,
    "ballint.conjugation_sign flipped on grade 2":
        ["ortho.harm_pairwise"] * 3 + ["ortho.mon_pairwise"] * 2,
    "verify.gf_value * (1 + 1e-9)": ["gf.gegenbauer_closed_vs_partial"],
    "verify.gegenbauer_poly top coefficient doubled at k = 5":
        ["gf.gegenbauer_closed_vs_partial", "lemmas.gegenbauer_recurrence_vs_oracle"],
}


def _clear_caches():
    for cached in (ballint._moment, ballint._degree_scale, gegenbauer.gegenbauer_poly):
        cached.cache_clear()


def _failing_names():
    report, _ = verify.run_verify(seed=0)
    assert len(report["checks"]) == CHECKS_AT_DEFAULTS
    return sorted(c["name"] for c in report["checks"] if c["status"] != "pass")


def test_the_catalogue_is_split_into_survivors_and_caught():
    assert SURVIVORS.isdisjoint(CAUGHT)
    assert SURVIVORS | CAUGHT.keys() == MUTANTS.keys()


def test_the_unbroken_library_passes():
    _clear_caches()
    assert _failing_names() == []


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant(name, monkeypatch):
    _clear_caches()
    try:
        monkeypatch.setattr(*MUTANTS[name]())
        assert _failing_names() == CAUGHT.get(name, [])
    finally:
        monkeypatch.undo()
        _clear_caches()
