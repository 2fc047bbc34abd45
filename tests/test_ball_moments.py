"""The ball integral formula and the scalar-only Clifford pairing against independent references.

monomial_ball_integral computes an integer moment times a rational scale per
total degree; here it must equal the classical Gamma product, built from
Fractions by Gamma(1/2) = sqrt(pi), Gamma(1) = 1 and Gamma(x + 1) = x Gamma(x).
inner_mon pairs only terms of equal blade; it must equal the scalar part of
the full pairing, inner_mon_full.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gtbasis import CLIFFORD, MPoly, Multivector, PiScaled, inner_mon, inner_mon_full
from gtbasis.ballint import monomial_ball_integral, pi_power


def gamma_of_half(n: int) -> tuple:
    """Gamma(n/2) for n >= 1 as (q, s), meaning q * sqrt(pi)^s."""
    q, x = Fraction(1), Fraction(2 - n % 2, 2)   # Gamma(1/2) = sqrt(pi), Gamma(1) = 1
    while x < Fraction(n, 2):
        q *= x
        x += 1
    return q, n % 2


def gamma_product_reference(m: int, alpha: tuple) -> PiScaled:
    q, s = Fraction(1), 0
    for a in alpha:
        qa, sa = gamma_of_half(a + 1)
        q, s = q * qa, s + sa
    qd, sd = gamma_of_half(sum(alpha) + m + 2)
    return PiScaled(q / qd, s - sd)


def test_gamma_of_half_reference():
    assert gamma_of_half(1) == (1, 1)
    assert gamma_of_half(2) == (1, 0)
    assert gamma_of_half(7) == (Fraction(15, 8), 1)   # Gamma(7/2) = 15/8 sqrt(pi)
    assert gamma_of_half(10) == (24, 0)               # Gamma(5) = 4!


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_integral_equals_the_gamma_product(m):
    for alpha in itertools.product(range(9), repeat=m):
        if sum(alpha) > 8:
            continue
        integral = monomial_ball_integral(m, alpha)
        if any(a % 2 for a in alpha):
            assert integral.is_zero(), alpha
        else:
            assert integral == gamma_product_reference(m, alpha), alpha
            assert integral.s == pi_power(m)


def random_clifford_poly(rng: random.Random, m: int) -> MPoly:
    """Up to 12 monomials of degree <= 4, each with up to 3 blades of rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 12)):
        exps = tuple(rng.randint(0, 4) for _ in range(m))
        blades = {rng.randrange(1 << m): Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 3))}
        terms[exps] = Multivector(m, blades)
    return MPoly(m, CLIFFORD, terms)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inner_mon_is_the_scalar_part_of_the_full_pairing(m, seed):
    rng = random.Random(f"inner_mon:{m}:{seed}")
    for _ in range(10):
        p, q = random_clifford_poly(rng, m), random_clifford_poly(rng, m)
        for a, b in ((p, q), (q, p), (p, p)):
            full, s = inner_mon_full(a, b)
            assert s == pi_power(m)
            assert inner_mon(a, b) == PiScaled(full.scalar_part(), pi_power(m))
