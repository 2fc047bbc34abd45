"""Exact Gegenbauer polynomials C_k^nu for rational nu > 0.

The polynomials are the Taylor coefficients in h of (1 - 2*t*h + h^2)^(-nu).
Construction uses the three-term recurrence

    k*C_k = 2*t*(k + nu - 1)*C_{k-1} - (k + 2*nu - 2)*C_{k-2},
    C_0 = 1,  C_1 = 2*nu*t,

which is checked against a brute-force expansion of the generating function
(`series_oracle`, kept deliberately independent of the recurrence and of the
rest of the package).  The embedding factors run the homogenized form of the
recurrence themselves (`harmonics._f_row`), so `gegenbauer_poly` serves only
verify and the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import FLOAT_OVERFLOW, _at_least, _float_value, _floats, _rational
from .scalars import binom_frac


@dataclass(frozen=True)
class GegenbauerPoly:
    """C_k^nu as an exact univariate polynomial; coeffs[i] multiplies t**i."""

    nu: Fraction
    k: int
    coeffs: tuple[Fraction, ...]

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _check_nu(nu) -> Fraction:
    """nu as a positive Fraction; it must be an int or a Fraction (_rational)."""
    nu = _rational(nu, "nu")
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    return nu


@lru_cache(maxsize=None, typed=True)
def gegenbauer_poly(nu: Fraction, k: int) -> GegenbauerPoly:
    """Exact C_k^nu via the three-term recurrence.

    The cache is typed: an untyped one returns a cached C_2 for k = 2.0, a
    degree the integer check below refuses on a cold cache.
    """
    nu, k = _check_nu(nu), _at_least(k, "k", 0)
    if k == 0:
        return GegenbauerPoly(nu, 0, (Fraction(1),))
    if k == 1:
        return GegenbauerPoly(nu, 1, (Fraction(0), 2 * nu))
    prev2 = gegenbauer_poly(nu, k - 2).coeffs
    prev1 = gegenbauer_poly(nu, k - 1).coeffs
    coeffs = [Fraction(0)] * (k + 1)
    a = Fraction(2 * (k + nu - 1), k)
    b = Fraction(k + 2 * nu - 2, k)
    for i, c in enumerate(prev1):
        coeffs[i + 1] += a * c
    for i, c in enumerate(prev2):
        coeffs[i] -= b * c
    return GegenbauerPoly(nu, k, tuple(coeffs))


def series_oracle(nu: Fraction, order: int) -> list[tuple[Fraction, ...]]:
    """Brute-force Taylor coefficients of (1 - 2*t*h + h^2)^(-nu) up to h**order.

    Expands sum_n binom(-nu, n) * u^n with u = -2*t*h + h^2 using plain dict
    arithmetic.  Entry k of the result is the coefficient tuple of C_k^nu.
    """
    nu, order = _check_nu(nu), _at_least(order, "order", 0)
    # h-degree -> {t-degree: Fraction}
    out: list[dict] = [dict() for _ in range(order + 1)]
    u = {1: {1: Fraction(-2)}, 2: {0: Fraction(1)}}
    upow = {0: {0: Fraction(1)}}
    for n in range(order + 1):
        cn = binom_frac(-nu, n)
        for hdeg, tpoly in upow.items():
            for tdeg, val in tpoly.items():
                out[hdeg][tdeg] = out[hdeg].get(tdeg, Fraction(0)) + cn * val
        # upow *= u, truncated at h**order
        nxt: dict = {}
        for ha, pa in upow.items():
            for hb, pb in u.items():
                h = ha + hb
                if h > order:
                    continue
                dst = nxt.setdefault(h, {})
                for ta, va in pa.items():
                    for tb, vb in pb.items():
                        t = ta + tb
                        dst[t] = dst.get(t, Fraction(0)) + va * vb
        upow = nxt
    result = []
    for k, tpoly in enumerate(out):
        top = max(tpoly) if tpoly else 0
        result.append(tuple(tpoly.get(i, Fraction(0)) for i in range(max(top, k) + 1))[:k + 1])
    return result


@_float_value
def gf_value(nu, t: float, h: float) -> float:
    """Closed-form generating function (1 - 2*t*h + h^2)^(-nu) for floats.

    nu may also be a finite float, taken at its exact binary value; t and h
    are taken as floats and must be finite (an int beyond the float range is a
    ValueError naming t or h).  A kernel or value beyond the float range is a
    FLOAT_OVERFLOW ValueError.
    """
    if isinstance(nu, float):
        if not math.isfinite(nu):
            raise ValueError(f"nu must be finite, got {nu}")
        nu = Fraction(nu)
    exponent = -float(_check_nu(nu))
    (t,), (h,) = _floats([t], "t"), _floats([h], "h")
    base = 1.0 - 2.0 * t * h + h * h
    if math.isnan(base):  # inf - inf: the kernel overflowed
        raise ValueError(FLOAT_OVERFLOW)
    if base <= 0:
        raise ValueError("generating-function kernel is not positive")
    return base ** exponent
