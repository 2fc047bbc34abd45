"""Exact ball integrals: Monte Carlo validation, inner products, orthogonality."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gtbasis import (CLIFFORD, BasisIndex, MonIndex, MPoly, Multivector,
                     PiScaled, enumerate_harm_indices, enumerate_mon_indices,
                     harm_basis, inner_harm, inner_mon,
                     inner_mon_full, mon_basis)
from gtbasis.ballint import gamma_half, monomial_ball_integral, pi_power
from gtbasis.scalars import make_gaussian

I = make_gaussian(0, 1)


def x(m, j, ring="gaussian"):
    return MPoly.variable(m, j, ring)


def monte_carlo_ball_integral(m, alpha, rng, samples=1_000_000):
    """Independent oracle: mean of x^alpha over the cube, masked to the ball."""
    pts = rng.uniform(-1.0, 1.0, size=(samples, m))
    inside = (pts ** 2).sum(axis=1) <= 1.0
    values = np.ones(samples)
    for i, a in enumerate(alpha):
        if a:
            values *= pts[:, i] ** a
    values = values * inside
    volume = 2.0 ** m
    mean = values.mean() * volume
    sigma = values.std(ddof=1) / math.sqrt(samples) * volume
    return mean, sigma


def test_gamma_half_values():
    assert gamma_half(1) == PiScaled(1, 1)            # Gamma(1/2) = sqrt(pi)
    assert gamma_half(2) == PiScaled(1, 0)            # Gamma(1) = 1
    assert gamma_half(3) == PiScaled(Fraction(1, 2), 1)
    assert gamma_half(4) == PiScaled(1, 0)
    assert gamma_half(5) == PiScaled(Fraction(3, 4), 1)
    assert gamma_half(7) == PiScaled(Fraction(15, 8), 1)


def test_disk_area():
    assert monomial_ball_integral(2, (0, 0)) == PiScaled(1, 2)


def test_ball_volume():
    assert monomial_ball_integral(3, (0, 0, 0)) == PiScaled(Fraction(4, 3), 2)


def test_x3_squared_integral():
    assert monomial_ball_integral(3, (0, 0, 2)) == PiScaled(Fraction(4, 15), 2)


def test_odd_exponent_vanishes():
    assert monomial_ball_integral(1, (1,)).is_zero()
    assert monomial_ball_integral(3, (2, 1, 0)).is_zero()


def test_parity_rule_both_directions():
    for alpha in itertools.product(range(4), repeat=3):
        integral = monomial_ball_integral(3, alpha)
        if any(a % 2 for a in alpha):
            assert integral.is_zero(), alpha
        else:
            assert integral > 0, alpha


def test_pi_power_is_uniform_per_dimension():
    for m in (2, 3, 4, 5):
        for alpha in itertools.product(range(0, 5, 2), repeat=m):
            integral = monomial_ball_integral(m, alpha)
            assert integral.s == pi_power(m), alpha


@pytest.mark.parametrize("m,alpha", [
    (2, (0, 0)), (2, (2, 0)), (2, (2, 2)),
    (3, (0, 0, 0)), (3, (0, 0, 2)), (3, (4, 0, 0)), (3, (2, 2, 0)),
    (4, (0, 0, 0, 0)), (4, (2, 0, 0, 2)),
])
def test_formula_against_monte_carlo(m, alpha):
    rng = np.random.default_rng(hash((m, alpha)) % 2 ** 32)
    mean, sigma = monte_carlo_ball_integral(m, alpha, rng)
    exact = float(monomial_ball_integral(m, alpha))
    assert abs(mean - exact) <= 3.0 * sigma, (mean, exact, sigma)


def test_monte_carlo_on_odd_exponent():
    rng = np.random.default_rng(99)
    mean, sigma = monte_carlo_ball_integral(3, (1, 0, 2), rng)
    assert abs(mean) <= 3.0 * sigma


# -- complex inner product ----------------------------------------------------


def test_inner_harm_odd_cross_term_vanishes():
    p = x(3, 1) + x(3, 2).scale(I)
    assert inner_harm(p, x(3, 3)).is_zero()


def test_inner_harm_x3_self():
    assert inner_harm(x(3, 3), x(3, 3)) == PiScaled(Fraction(4, 15), 2)


def test_inner_harm_base_self():
    p = x(3, 1) + x(3, 2).scale(I)
    assert inner_harm(p, p) == PiScaled(Fraction(8, 15), 2)


def test_inner_harm_conjugate_linearity():
    p = x(3, 1) + x(3, 2).scale(I)
    q = x(3, 1) * x(3, 3)
    scaled = inner_harm(p.scale(make_gaussian(2, 3)), q)
    base = inner_harm(p, q)
    assert scaled == PiScaled(make_gaussian(2, -3) * base.q, base.s)


def test_inner_harm_self_product_is_real_positive():
    for idx in enumerate_harm_indices(3, 3):
        p = harm_basis(idx)
        val = inner_harm(p, p)
        assert isinstance(val.q, Fraction) and val > 0, idx


# -- clifford inner product ---------------------------------------------------


def test_inner_mon_odd_term_vanishes():
    one = MPoly.constant(3, 1, CLIFFORD)
    xe1 = x(3, 1, CLIFFORD) * Multivector.basis_vector(3, 1)
    assert inner_mon(one, xe1).is_zero()


def test_inner_mon_base_self():
    p = mon_basis(MonIndex((1,))).embed(3)
    assert inner_mon(p, p) == PiScaled(Fraction(8, 15), 2)


def test_inner_mon_distinct_indices_vanish():
    p = mon_basis(MonIndex((1, 0)))
    q = mon_basis(MonIndex((0, 1)))
    assert inner_mon(p, q).is_zero()


def test_inner_mon_full_value():
    p = mon_basis(MonIndex((1,)))
    full, s = inner_mon_full(p, p)
    # conj(x1 - e12 x2)(x1 - e12 x2) = (x1 + e12 x2)(x1 - e12 x2) = x1^2 + x2^2
    assert s == pi_power(2)
    assert full == Multivector.scalar(2, Fraction(1, 2))  # integral of x1^2+x2^2 over disk = pi/2


def test_degree_parity_orthogonality():
    # homogeneous polynomials of odd and even degree are automatically orthogonal
    p = harm_basis(BasisIndex((1, 1), +1))
    q = harm_basis(BasisIndex((1, 0), +1))
    assert inner_harm(p, q).is_zero()


def test_orthogonality_sweep_harmonics():
    for m in (2, 3):
        basis = [(idx, harm_basis(idx)) for idx in enumerate_harm_indices(m, 3)]
        for i, (idx_a, a) in enumerate(basis):
            assert inner_harm(a, a) > 0
            for idx_b, b in basis[i + 1:]:
                assert inner_harm(a, b).is_zero(), (idx_a, idx_b)


def test_orthogonality_sweep_monogenics():
    for m in (2, 3):
        basis = [(idx, mon_basis(idx)) for idx in enumerate_mon_indices(m, 2)]
        for i, (idx_a, a) in enumerate(basis):
            assert inner_mon(a, a) > 0
            for idx_b, b in basis[i + 1:]:
                assert inner_mon(a, b).is_zero(), (idx_a, idx_b)


# -- PiScaled semantics --------------------------------------------------------


def test_pi_scaled_addition_requires_matching_power():
    with pytest.raises(ValueError):
        PiScaled(1, 1) + PiScaled(1, 2)
    assert PiScaled(0, 0) + PiScaled(Fraction(2, 3), 5) == PiScaled(Fraction(2, 3), 5)


def test_pi_scaled_float_and_json():
    val = PiScaled(Fraction(4, 3), 2)
    assert float(val) == pytest.approx(4.0 / 3.0 * math.pi)
    assert PiScaled.from_json(val.to_json()) == val