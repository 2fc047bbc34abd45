"""Exact integrals of monomials over the unit ball and L^2 inner products.

The classical formula

    integral_{B_m} x^alpha dx = prod_i Gamma((alpha_i+1)/2) / Gamma((|alpha|+m+2)/2)

holds when every alpha_i is even and the integral vanishes otherwise.  All
Gamma values sit at half-integers, so every integral is an exact rational
multiple of a power of sqrt(pi) (PiScaled).  Orthogonality of basis
polynomials therefore reduces to exact-zero assertions with no quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .clifford import E12, Multivector, blade_sign
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly
from .scalars import PiScaled, make_gaussian

__all__ = ["gamma_half", "monomial_ball_integral", "inner_harm", "inner_mon",
           "inner_mon_full", "pi_power"]


def gamma_half(n: int) -> PiScaled:
    """Gamma(n/2) for integer n >= 1, exactly: rational times sqrt(pi)^(n mod 2)."""
    if n < 1:
        raise ValueError("gamma_half needs n >= 1")
    if n % 2 == 0:
        return PiScaled(math.factorial(n // 2 - 1), 0)
    q = Fraction(1)
    for odd in range(n - 2, 0, -2):
        q *= odd
    return PiScaled(q / 2 ** ((n - 1) // 2), 1)


def pi_power(m: int) -> int:
    """The sqrt(pi) exponent shared by all nonzero ball integrals in dimension m."""
    return m if m % 2 == 0 else m - 1


@lru_cache(maxsize=None)
def _ball_integral_cached(m: int, alpha: tuple) -> PiScaled:
    if any(a % 2 for a in alpha):
        return PiScaled.zero()
    num_q = Fraction(1)
    num_s = 0
    for a in alpha:
        g = gamma_half(a + 1)
        num_q *= g.q
        num_s += g.s
    den = gamma_half(sum(alpha) + m + 2)
    return PiScaled(num_q / den.q, num_s - den.s)


def monomial_ball_integral(m: int, alpha) -> PiScaled:
    """Exact integral of x_1^a1 ... x_m^am over the unit ball in R^m."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != m:
        raise ValueError(f"exponent vector needs {m} entries")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be non-negative")
    return _ball_integral_cached(m, alpha)


@lru_cache(maxsize=1 << 16)
def _parity(exps: tuple) -> tuple:
    return tuple(e & 1 for e in exps)


def _ball_pairing(p: MPoly, q: MPoly, ring: str, caller: str) -> dict:
    """Blade -> sum over term pairs of conj(a) * b * (rational part of the ball integral).

    conj is MPoly.conjugate, Clifford conjugation, which is i -> -i on the
    gaussian ring's e12.  Every nonzero integral in dimension m carries the
    same sqrt(pi) power, pi_power(m), which the caller attaches.  The integer
    weights conj(na) * nb * sign are summed per (blade, exponent vector)
    first, so each distinct exponent vector is integrated once and the
    denominators are divided out once at the end.
    """
    if p.ring != ring or q.ring != ring:
        raise ValueError(f"{caller} needs {ring}-ring polynomials")
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    m = p.dim
    # A pair integrates to zero unless its exponents have the same parity in
    # every variable, so each p term meets only its own parity bucket of q.
    buckets: dict = {}
    for (eb, bb), nb in q.num.items():
        buckets.setdefault(_parity(eb), []).append((eb, bb, nb))
    weights: dict = {}
    get = weights.get
    for (ea, ba), na in p.conjugate().num.items():
        for eb, bb, nb in buckets.get(_parity(ea), ()):
            key = (ba ^ bb, tuple(map(add, ea, eb)))
            weights[key] = get(key, 0) + (na * nb if blade_sign(ba, bb) > 0 else -na * nb)
    integrals: dict = {}
    acc: dict = {}
    for (blade, alpha), w in weights.items():
        if not w:
            continue
        if alpha not in integrals:
            integrals[alpha] = monomial_ball_integral(m, alpha).q
        acc[blade] = acc.get(blade, 0) + w * integrals[alpha]
    den = p.den * q.den
    return {blade: c / den for blade, c in acc.items()}


def inner_harm(p: MPoly, q: MPoly) -> PiScaled:
    """L^2(B_m) inner product of complex polynomials: integral of conj(p)*q.

    Conjugate-linear in p, linear in q; the result is an exact (Gaussian)
    rational multiple of the dimension's pi power.
    """
    acc = _ball_pairing(p, q, GAUSSIAN, "inner_harm")
    return PiScaled(make_gaussian(acc.get(0, 0), acc.get(E12, 0)), pi_power(p.dim))


def inner_mon(p: MPoly, q: MPoly) -> PiScaled:
    """Scalar part of the Clifford inner product: integral of scalar(conj(p)*q)."""
    full, s = inner_mon_full(p, q)
    return PiScaled(full.scalar_part(), s)


def inner_mon_full(p: MPoly, q: MPoly) -> tuple[Multivector, int]:
    """Full Clifford-valued inner product over the ball.

    Returns (value, s): an exact multivector of rational coefficients and
    the sqrt(pi) exponent s, meaning value * pi^(s/2).
    """
    acc = _ball_pairing(p, q, CLIFFORD, "inner_mon")
    return Multivector(p.dim, acc), pi_power(p.dim)
