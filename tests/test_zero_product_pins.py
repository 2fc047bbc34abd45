"""The float partial sums at points where the embedding factors vanish, pinned by digest.

At a coordinate x_r = 0 every odd Gegenbauer value C^nu_k(0) is 0, so the
monogenic b terms of the partial sums (first = 1 in harmonics._sums) meet
zero coefficients.  A sum that adds such a zero product must keep the bits of
one that skips it: a sum starts at +0.0 and never becomes -0.0, so adding a
zero leaves it unchanged, and a value that is not finite reaches the result
through the k = 0 term anyway, where the entry point refuses it.

The sample below has +0.0 and -0.0 coordinates and h entries, and points
whose coordinates or h entries reach 1e300, so that some results are the
FLOAT_OVERFLOW ValueError.  Its digest was computed while the sums still
skipped every zero coefficient, and it holds on every Python version the
package supports.
"""

import hashlib
import random

from gtbasis import FACTORIAL, PLAIN, gf_harm_partial_sum, gf_mon_partial_sum
from gtbasis import harmonics

ORDERS = (0, 1, 12, 30)

# sha256 of the outcomes below, one repr or exception text per call
ZERO_PRODUCT_SHA256 = "536363c1db2630e14ca68ee7c03fe0fa88b6b7467f7428e2c7b91e95a5c9bf38"


def _entry(rng, bound, huge):
    kind = rng.randrange(6)
    if kind == 0:
        return 0.0
    if kind == 1:
        return -0.0
    if huge and kind == 2:
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.choice([100, 160, 300])
    return rng.uniform(-bound, bound)


def _points(m, count):
    """Seeded (x, h) pairs of dimension m; every fourth one may hold entries up to 1e300."""
    rng = random.Random(f"zero-products:{m}")
    points = []
    for n in range(count):
        huge = n % 4 == 3
        x = [_entry(rng, 1.0 / m, huge) for _ in range(m)]
        h = [_entry(rng, 0.5, huge)] + [_entry(rng, 0.5 / 4 ** (m - r), huge)
                                        for r in range(3, m + 1)]
        points.append((x, h))
    return points


def _outcome(evaluate, *args) -> str:
    try:
        value = evaluate(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(value.terms if hasattr(value, "terms") else value)


def _sample():
    """(label, outcome) of both partial sums over m = 2..6, ORDERS, both
    normalizations and both harmonic signs."""
    for m in range(2, 7):
        for x, h in _points(m, 8):
            for order in ORDERS:
                for norm in (FACTORIAL, PLAIN):
                    for sign in (+1, -1):
                        yield _outcome(gf_harm_partial_sum, m, x, h, order, sign, norm)
                    yield _outcome(gf_mon_partial_sum, m, x, h, order, norm)


def test_partial_sums_at_zero_factors_are_pinned():
    digest = hashlib.sha256()
    for outcome in _sample():
        digest.update(outcome.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == ZERO_PRODUCT_SHA256


def test_the_sample_meets_zero_coefficients_and_overflows(monkeypatch):
    """The pin above covers what it claims: b sums with a zero coefficient, and refusals."""
    sums = harmonics._sums
    met = []

    def counting(diagonals, first, hpow, column):
        if first:
            met.extend(0.0 in coeffs for coeffs in diagonals)
        return sums(diagonals, first, hpow, column)

    monkeypatch.setattr(harmonics, "_sums", counting)
    outcomes = list(_sample())
    assert sum(met) >= 5000  # of about 30,000 b sums
    assert sum(o.startswith("ValueError: the generating-function value overflows")
               for o in outcomes) >= 20

