"""The exact embedding factors F^(k)_{m,j} against constructions that do not run their recurrence.

embedding_F runs the homogenized Gegenbauer recurrence on polynomials.  The
first reference expands the coefficients c_i of C_k^nu (gegenbauer_poly),
nu = m/2 + j - 1, against x_m^i |x|_m^(k-i); the second is the closed form
F^(k)_{m,j}(e_m) = C_k^nu(1) = binom(k + 2nu - 1, k) at high degrees.
"""

import math
from fractions import Fraction

import pytest

from gtbasis import MPoly, embedding_F, gegenbauer_poly
from gtbasis.mvpoly import radius_squared


def _coefficient_expansion(m: int, j: int, k: int) -> MPoly:
    """sum_i c_i x_m^i |x|_m^(k-i) with c = gegenbauer_poly(nu, k).coeffs (k - i is even)."""
    xm = MPoly.variable(m, m)
    r2 = radius_squared(m)
    out = MPoly.zero(m)
    for i, c in enumerate(gegenbauer_poly(Fraction(m, 2) + j - 1, k).coeffs):
        if c:
            out = out + (xm ** i * r2 ** ((k - i) // 2)).scale(c)
    return out


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_embedding_F_equals_the_gegenbauer_coefficient_expansion(m):
    for j in range(5):
        for k in range(11):
            assert embedding_F(m, j, k) == _coefficient_expansion(m, j, k), (m, j, k)


@pytest.mark.parametrize("m, j, k", [(3, 0, 100), (3, 1, 100), (4, 0, 30), (4, 2, 30),
                                     (5, 0, 30), (5, 1, 30)])
def test_embedding_F_at_e_m_is_the_gegenbauer_value_at_one(m, j, k):
    factor = embedding_F(m, j, k)
    assert factor.is_homogeneous(k)
    e_m = (0,) * (m - 1) + (1,)
    assert factor.eval(e_m) == math.comb(k + m + 2 * j - 3, k)
