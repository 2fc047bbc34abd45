"""Spherical harmonic basis, embedding factors, and the generating function."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from gtbasis import (FACTORIAL, PLAIN, BasisIndex, DomainBox, DomainError,
                     MPoly, SingularityError, embedding_F, embedding_f_value,
                     enumerate_harm_indices, gf_harm_closed, gf_harm_closed_m3,
                     gf_harm_partial_sum, gf_harm_series, harm_basis,
                     iter_multi_indices, real_basis)
from gtbasis.scalars import make_gaussian

I = make_gaussian(0, 1)


def x(m, j):
    return MPoly.variable(m, j)


def ball_point(rng, m):
    while True:
        pt = rng.uniform(-1.0, 1.0, size=m)
        if float(pt @ pt) <= 1.0:
            return [float(v) for v in pt]


def half_box_h(rng, m, h2_bound):
    box = DomainBox(m)
    h = [float(rng.uniform(-h2_bound, h2_bound))]
    for r in range(3, m + 1):
        b = float(box.bound(r)) / 2.0
        h.append(float(rng.uniform(-b, b)))
    return h


# -- embedding factors -------------------------------------------------------


def test_embedding_factor_order_zero_is_one():
    for m in (3, 4, 5):
        for j in (0, 1, 2):
            assert embedding_F(m, j, 0) == MPoly.constant(m, 1)


def test_embedding_factor_examples():
    assert embedding_F(3, 0, 1) == x(3, 3)
    assert embedding_F(3, 1, 1) == x(3, 3).scale(3)


def test_embedding_factor_k_minus_one_is_zero():
    assert embedding_F(3, 1, -1).is_zero()


def test_embedding_factor_requires_m_at_least_three():
    with pytest.raises(ValueError):
        embedding_F(2, 0, 1)


def test_embedding_factor_value_matches_polynomial():
    rng = np.random.default_rng(31)
    for _ in range(5):
        pt = ball_point(rng, 4)
        for m, j, k in ((3, 0, 3), (4, 1, 2), (4, 2, 4)):
            poly_val = embedding_F(m, j, k).embed(4).eval(pt)
            assert embedding_f_value(m, j, k, pt) == pytest.approx(poly_val, abs=1e-12)


# -- basis polynomials -------------------------------------------------------


def test_base_case_degree_two():
    expected = ((x(2, 1) + x(2, 2).scale(I)) ** 2).scale(Fraction(1, 2))
    assert harm_basis(BasisIndex((2,), +1)) == expected


def test_degree_two_element_in_r3():
    assert harm_basis(BasisIndex((1, 1), +1)) == \
        (x(3, 3) * (x(3, 1) + x(3, 2).scale(I))).scale(3)


def test_pure_x3_element():
    assert harm_basis(BasisIndex((0, 1), +1)) == x(3, 3)
    assert harm_basis(BasisIndex((0, 1), -1)) == x(3, 3)


def test_plain_normalization_drops_factorial():
    k = (3, 1)
    fac = harm_basis(BasisIndex(k, +1, FACTORIAL))
    plain = harm_basis(BasisIndex(k, +1, PLAIN))
    assert plain == fac.scale(math.factorial(3))


def test_harmonic_and_homogeneous_sweep():
    for m in (2, 3, 4):
        for norm in (FACTORIAL, PLAIN):
            for idx in enumerate_harm_indices(m, 4, norm):
                poly = harm_basis(idx)
                assert poly.laplacian().is_zero(), idx
                assert poly.is_homogeneous(idx.degree()), idx


def test_conjugation_symmetry():
    for k in ((2,), (1, 1), (2, 1), (1, 0, 2)):
        plus = harm_basis(BasisIndex(k, +1))
        minus = harm_basis(BasisIndex(k, -1))
        assert minus == plus.conjugate()


def test_enumeration_deduplicates_k2_zero():
    indices = enumerate_harm_indices(3, 2)
    zero_k2 = [i for i in indices if i.k[0] == 0]
    assert all(i.sign == +1 for i in zero_k2)
    signed = [i for i in indices if i.k[0] > 0]
    assert {i.sign for i in signed} == {+1, -1}
    assert len(indices) == len(set(indices))


def test_real_basis_examples():
    assert real_basis(BasisIndex((1,), +1)) == (x(2, 1), x(2, 2))
    re, im = real_basis(BasisIndex((2,), +1))
    assert re == (x(2, 1) ** 2 - x(2, 2) ** 2).scale(Fraction(1, 2))
    assert im == x(2, 1) * x(2, 2)
    re3, im3 = real_basis(BasisIndex((0, 1), +1))
    assert re3 == x(3, 3) and im3.is_zero()


# -- series ------------------------------------------------------------------


def test_series_base_case():
    s = gf_harm_series(2, 3)
    z = x(2, 1) + x(2, 2).scale(I)
    for k in range(4):
        assert s.coefficient((k,)) == (z ** k).scale(Fraction(1, math.factorial(k)))


def test_series_coefficients_in_r3():
    s = gf_harm_series(3, 2)
    assert s.coefficient((1, 1)) == harm_basis(BasisIndex((1, 1), +1))
    assert s.coefficient((0, 2)) == \
        (x(3, 3) ** 2).scale(Fraction(3, 2)) - \
        (x(3, 1) ** 2 + x(3, 2) ** 2 + x(3, 3) ** 2).scale(Fraction(1, 2))


def test_series_extraction_small():
    for m in (2, 3):
        for sign in (+1, -1):
            for norm in (FACTORIAL, PLAIN):
                s = gf_harm_series(m, 3, sign, norm)
                for k in iter_multi_indices(m - 1, 3):
                    assert s.coefficient(k) == harm_basis(BasisIndex(k, sign, norm))


# -- closed form -------------------------------------------------------------


def test_closed_form_at_origin():
    assert gf_harm_closed(3, (0, 0, 0), (0.3, 0.2)) == pytest.approx(1.0)
    assert gf_harm_closed(2, (0, 0), (7.0,)) == pytest.approx(1.0)


def test_closed_form_known_value():
    # d = 1 - 1/2 + 1/16 = 9/16, H = (9/16)^(-1/2) = 4/3; the series route is
    # sum_k F^(k)(x) h^k = sum_k (1/4)^k = 4/3
    val = gf_harm_closed(3, (0, 0, 0.5), (0.0, 0.5))
    assert val == pytest.approx(4.0 / 3.0, abs=1e-14)
    geometric = sum(0.25 ** k for k in range(60))
    assert val == pytest.approx(geometric, abs=1e-12)


def test_closed_form_exponential_base():
    for t in (0.1, 0.7, -1.3):
        assert gf_harm_closed(3, (1, 0, 0), (t, 0.0)) == pytest.approx(cmath.exp(t))


def test_closed_vs_partial_sum():
    rng = np.random.default_rng(32)
    for m in (2, 3, 4):
        for norm in (FACTORIAL, PLAIN):
            bound = 0.5 if norm == FACTORIAL else 0.1
            points = 20 if m < 4 else 6
            for _ in range(points):
                pt = ball_point(rng, m)
                h = half_box_h(rng, m, bound)
                for sign in (+1, -1):
                    closed = gf_harm_closed(m, pt, h, sign, norm)
                    partial = gf_harm_partial_sum(m, pt, h, 30, sign, norm)
                    assert abs(closed - partial) <= 1e-8


def test_m3_closed_formula_matches_recurrence():
    rng = np.random.default_rng(33)
    for norm in (FACTORIAL, PLAIN):
        bound = 0.5 if norm == FACTORIAL else 0.1
        for _ in range(20):
            pt = ball_point(rng, 3)
            h = half_box_h(rng, 3, bound)
            for sign in (+1, -1):
                direct = gf_harm_closed_m3(pt, h, sign, norm)
                generic = gf_harm_closed(3, pt, h, sign, norm)
                assert abs(direct - generic) <= 1e-12 * max(1.0, abs(direct))


def test_recurrence_consistency():
    rng = np.random.default_rng(34)
    for m in (3, 4):
        for _ in range(20):
            pt = ball_point(rng, m)
            h = half_box_h(rng, m, 0.5)
            r2 = sum(v * v for v in pt)
            d = 1.0 - 2.0 * pt[-1] * h[-1] + h[-1] ** 2 * r2
            whole = gf_harm_closed(m, pt, h)
            inner = gf_harm_closed(m - 1, pt[:-1], [v / d for v in h[:-1]],
                                   unsafe_domain=True)
            assert abs(whole - d ** (1.0 - m / 2.0) * inner) <= 1e-12 * max(1.0, abs(whole))


# -- domain handling ---------------------------------------------------------


def test_domain_box_bounds():
    box = DomainBox(5)
    assert box.bound(2) is None
    assert box.bounds() == (None, Fraction(1, 32), Fraction(1, 8), Fraction(1, 2))
    assert box.contains((100.0, 0.01, 0.1, 0.49))
    assert not box.contains((0.0, 0.04, 0.0, 0.0))


def test_domain_boundary_point_is_admissible():
    # the reference point h_3 = 1/2 sits on the conservative boundary
    assert DomainBox(3).contains((0.0, 0.5))


def test_domain_violation_raises():
    with pytest.raises(DomainError):
        gf_harm_closed(3, (0, 0, 0.5), (0.0, 0.6))
    with pytest.raises(DomainError):
        gf_harm_closed(3, (0, 0, 1.5), (0.0, 0.1))
    # override disables the check
    gf_harm_closed(3, (0, 0, 0.5), (0.0, 0.6), unsafe_domain=True)


def test_singular_kernel_raises():
    with pytest.raises(SingularityError):
        gf_harm_closed(3, (0, 0, 1.0), (0.0, 1.0), unsafe_domain=True)
