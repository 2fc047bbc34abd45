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

from gtbasis import Multivector, ballint, gegenbauer, harmonics, monogenics, verify

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


def _wrapped(module, name, after):
    """Patch module.name to return after(its value)."""
    original = getattr(module, name)
    return module, name, lambda *args, **kwargs: after(original(*args, **kwargs))


def _u_first_target_negated(only_r=None):
    """Patch monogenics._u_times to negate the first entry of its result (the first even
    target), at every r or at r = only_r."""
    original = monogenics._u_times

    def u_times(r, x, s, v):
        out = original(r, x, s, v)
        if only_r in (None, r):
            out[0] = -out[0]
        return out
    return monogenics, "_u_times", u_times


def _chain_broken(from_right=False, j_includes_k_r=False):
    """Patch harmonics._chain, the basis recursion, to multiply the factor from the right
    or to label it with j = k_2 + ... + k_r, which wrongly includes k_r."""
    original = harmonics._chain

    def chain(sign, ring, factor, k):
        if len(k) == 1:
            return original(sign, ring, factor, k)
        r = len(k) + 1
        f = factor(r, sum(k) if j_includes_k_r else sum(k[:-1]), k[-1])
        lower = harmonics._chain(sign, ring, factor, k[:-1]).embed(r)
        return lower * f if from_right else f * lower
    return harmonics, "_chain", chain


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
    # the float closed forms and partial sums; the closed form and the sums share _u_times
    "monogenics._u_times first target negated": _u_first_target_negated,
    "monogenics._u_times first target negated at r = 4":
        lambda: _u_first_target_negated(only_r=4),
    "monogenics._x_split b doubled":
        lambda: _wrapped(monogenics, "_x_split",
                         lambda ab: (ab[0], [[2.0 * c for c in row] for row in ab[1]])),
    "harmonics._descend every d * (1 + 1e-9)":
        lambda: _wrapped(harmonics, "_descend", lambda out: (
            [(r, d * (1 + 1e-9), hr) for r, d, hr in out[0]], out[1])),
    "harmonics._base2_value conjugated":
        lambda: _wrapped(harmonics, "_base2_value", lambda z: z.conjugate()),
    "verify.gf_mon_closed_m3 e23 part negated":
        lambda: _wrapped(verify, "gf_mon_closed_m3", lambda v: Multivector(
            3, {**v.terms, 0b110: -v.coeff(0b110)})),
    # the exact bases: the dimension recursion of harmonics._chain
    "harmonics._chain factor multiplied from the right":
        lambda: _chain_broken(from_right=True),
    "harmonics._chain j includes k_r": lambda: _chain_broken(j_includes_k_r=True),
}

SURVIVORS = {
    "ballint._degree_scale * (degree + 7)",
    "ballint.pi_power -> 0",
    "verify.inner_mon doubled",
    "ballint.blade_sign(e1, e2) negated",
    # only the literal m = 3 formula runs apart from _u_times, and it stops at r = 3
    "monogenics._u_times first target negated at r = 4",
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
    "monogenics._u_times first target negated": ["gf.mon_m3_closed_formula"] * 2,
    "monogenics._x_split b doubled":
        ["gf.mon_closed_vs_series"] * 4 + ["gf.mon_m3_closed_formula"] * 2,
    "harmonics._descend every d * (1 + 1e-9)":
        ["gf.harm_m3_closed_formula"] * 4 + ["gf.harm_recurrence_step"] * 4
        + ["gf.mon_m3_closed_formula"] * 2,
    "harmonics._base2_value conjugated":
        ["gf.harm_closed_vs_series"] * 6 + ["gf.harm_m3_closed_formula"] * 4
        + ["gf.mon_closed_vs_series"] * 6 + ["gf.mon_m3_closed_formula"] * 2,
    "verify.gf_mon_closed_m3 e23 part negated": ["gf.mon_m3_closed_formula"] * 2,
    # gaussian-ring products commute, so only the monogenic checks see the order
    "harmonics._chain factor multiplied from the right":
        ["extract.mon_series_equals_basis"] * 4 + ["pde.mon_dirac_zero"] * 4,
    "harmonics._chain j includes k_r":
        ["extract.harm_series_equals_basis"] * 8 + ["extract.mon_series_equals_basis"] * 4
        + ["ortho.harm_pairwise"] * 2 + ["ortho.mon_pairwise"]
        + ["pde.harm_laplacian_zero"] * 4 + ["pde.mon_dirac_zero"] * 4,
}


def _clear_caches():
    for cached in (ballint._moment, ballint._degree_scale, gegenbauer.gegenbauer_poly,
                   harmonics._chain):
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
