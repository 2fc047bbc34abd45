"""Gegenbauer recurrence against the generating-function oracle."""

from fractions import Fraction

import pytest

from gtbasis import gegenbauer_poly, gf_value
from gtbasis.gegenbauer import series_oracle

NUS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def test_constant_polynomial():
    assert gegenbauer_poly(Fraction(3, 2), 0).coeffs == (Fraction(1),)


def test_known_small_polynomials():
    # brute-force expansions of (1 - 2 t h + h^2)^(-nu) frozen by hand:
    # nu=1, h^2 coefficient of sum (2th - h^2)^n is 4t^2 - 1
    assert gegenbauer_poly(Fraction(1), 2).coeffs == (Fraction(-1), Fraction(0), Fraction(4))
    # nu=1/2, h^1 coefficient is t (Legendre P_1)
    assert gegenbauer_poly(Fraction(1, 2), 1).coeffs == (Fraction(0), Fraction(1))


def test_eval_order_zero():
    assert gegenbauer_poly(Fraction(7, 2), 0)(Fraction(1, 3)) == 1
    assert gegenbauer_poly(Fraction(7, 2), 0)(0.25) == 1


def test_legendre_at_one():
    # GF at t=1 is (1-h)^(-1), so every coefficient equals 1
    for k in range(11):
        assert gegenbauer_poly(Fraction(1, 2), k)(Fraction(1)) == 1


def test_eval_root_of_c2():
    assert gegenbauer_poly(Fraction(1), 2)(Fraction(1, 2)) == 0


def test_recurrence_equals_series_oracle():
    for nu in NUS:
        oracle = series_oracle(nu, 12)
        for k in range(13):
            assert gegenbauer_poly(nu, k).coeffs == oracle[k]


def test_degree_and_parity():
    for nu in NUS:
        for k in range(13):
            coeffs = gegenbauer_poly(nu, k).coeffs
            assert len(coeffs) == k + 1 and coeffs[k] != 0
            assert all(c == 0 for i, c in enumerate(coeffs) if (i - k) % 2)


def test_parity_reflection():
    for nu in NUS:
        for k in range(13):
            poly = gegenbauer_poly(nu, k)
            for t in (Fraction(1, 3), Fraction(-4, 5)):
                assert poly(-t) == (-1) ** k * poly(t)


def test_float_generating_function_grid():
    order = 30
    for nu in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        polys = [gegenbauer_poly(nu, k) for k in range(order + 1)]
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for h in (0.25, -0.25, 0.125, -0.125):
                partial = sum(p(t) * h ** k for k, p in enumerate(polys))
                assert abs(partial - gf_value(nu, t, h)) <= 1e-10


def test_nonpositive_nu_rejected():
    with pytest.raises(ValueError):
        gegenbauer_poly(Fraction(0), 2)
