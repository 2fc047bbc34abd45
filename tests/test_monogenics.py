"""Spherical monogenic basis, Clifford embedding factors, generating function."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gtbasis import (CLIFFORD, FACTORIAL, PLAIN, DomainBox, MonIndex, MPoly,
                     Multivector, embedding_X,
                     enumerate_mon_indices, gf_mon_closed, gf_mon_closed_m3,
                     gf_mon_partial_sum, gf_mon_series, HSeries,
                     iter_multi_indices, mon_basis)
from gtbasis.hseries import binomial_expand
from gtbasis.mvpoly import radius_squared


def x(m, j):
    return MPoly.variable(m, j, CLIFFORD)


def ux_em(m):
    out = MPoly.zero(m, CLIFFORD)
    for j in range(1, m):
        out = out + x(m, j) * Multivector.blade(m, (1 << (j - 1)) | (1 << (m - 1)))
    return out


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


def mv_error(a: Multivector, b: Multivector) -> float:
    diff = a - b
    return max((abs(c) for c in diff.terms.values()), default=0.0)


# -- embedding factors -------------------------------------------------------


def test_embedding_factor_order_zero_is_one():
    for m in (3, 4):
        for j in (0, 1, 3):
            assert embedding_X(m, j, 0) == MPoly.constant(m, 1, CLIFFORD)


def test_embedding_factor_first_order():
    assert embedding_X(3, 0, 1) == x(3, 3).scale(2) + ux_em(3)


def test_embedding_factor_m4_with_shift():
    # (5/4) * F^(1)_{4,1} + F^(0)_{4,2} ux e4 = 5 x4 + ux e4
    assert embedding_X(4, 1, 1) == x(4, 4).scale(5) + ux_em(4)


def test_shift_zero_embedding_factors_are_dirac_annihilated():
    # X^(k)_{m,0} is itself a basis monogenic; for j > 0 only the product
    # with a degree-j monogenic from the lower dimensions is annihilated
    for m in (3, 4):
        for k in range(5):
            assert embedding_X(m, 0, k).dirac().is_zero(), (m, k)


def test_embedding_factor_requires_m_at_least_three():
    with pytest.raises(ValueError):
        embedding_X(2, 0, 1)


# -- basis -------------------------------------------------------------------


def test_base_case_degree_one():
    expected = x(2, 1) + x(2, 2) * Multivector.blade(2, 0b11, -1)
    assert mon_basis(MonIndex((1,))) == expected


def test_pure_embedding_element():
    assert mon_basis(MonIndex((0, 1))) == embedding_X(3, 0, 1)


def test_mixed_element_uses_shifted_factor():
    base = mon_basis(MonIndex((1,))).embed(3)
    assert mon_basis(MonIndex((1, 1))) == embedding_X(3, 1, 1).embed(3) * base


def test_plain_normalization_drops_factorial():
    fac = mon_basis(MonIndex((3, 1), FACTORIAL))
    plain = mon_basis(MonIndex((3, 1), PLAIN))
    assert plain == fac.scale(math.factorial(3))


def test_monogenic_and_homogeneous_sweep():
    for m in (2, 3, 4):
        for norm in (FACTORIAL, PLAIN):
            for idx in enumerate_mon_indices(m, 3, norm):
                poly = mon_basis(idx)
                assert poly.dirac().is_zero(), idx
                assert poly.is_homogeneous(idx.degree()), idx


def test_reversed_factor_order_is_not_monogenic():
    # the ordering in the product matters: applying the embedding factor from
    # the right instead of the left breaks Dirac annihilation
    base = mon_basis(MonIndex((1,))).embed(3)
    reversed_product = base * embedding_X(3, 1, 1).embed(3)
    assert not reversed_product.dirac().is_zero()


# -- lemma on the X generating function ---------------------------------------


def test_x_factors_match_binomial_expansion():
    for m in (3, 4):
        for j in (0, 1, 2):
            alpha = -(Fraction(m, 2) + j)
            c1 = x(m, m).scale(-2)
            c2 = radius_squared(m, ring=CLIFFORD)
            denom = binomial_expand(alpha, c1, c2, m, 5)
            xm_poly = x(m, m)
            prefactor = HSeries(m, 5, CLIFFORD, {
                (0,) * (m - 1): MPoly.constant(m, 1, CLIFFORD),
                (0,) * (m - 2) + (1,): ux_em(m) - xm_poly,
            })
            series = prefactor * denom
            for k in range(6):
                key = (0,) * (m - 2) + (k,)
                assert series.coefficient(key) == embedding_X(m, j, k), (m, j, k)


# -- series ------------------------------------------------------------------


def test_series_base_case():
    s = gf_mon_series(2, 2)
    p = mon_basis(MonIndex((1,)))
    assert s.coefficient((0,)) == MPoly.constant(2, 1, CLIFFORD)
    assert s.coefficient((1,)) == p
    assert s.coefficient((2,)) == (p * p).scale(Fraction(1, 2))


def test_series_first_embedding_coefficient():
    s = gf_mon_series(3, 1)
    assert s.coefficient((0, 1)) == embedding_X(3, 0, 1)


def test_series_extraction_small():
    for m in (2, 3):
        for norm in (FACTORIAL, PLAIN):
            s = gf_mon_series(m, 2, norm)
            for k in iter_multi_indices(m - 1, 2):
                assert s.coefficient(k) == mon_basis(MonIndex(k, norm))


# -- closed form -------------------------------------------------------------


def test_closed_form_at_origin():
    val = gf_mon_closed(3, (0, 0, 0), (0.3, 0.2))
    assert mv_error(val, Multivector.scalar(3, 1.0)) <= 1e-14


def test_closed_form_known_scalar_value():
    # prefactor 1 - x3 h3 = 3/4, d = 9/16, result (3/4) * (16/9)^(3/2) = 16/9
    val = gf_mon_closed(3, (0, 0, 0.5), (0.0, 0.5))
    assert mv_error(val, Multivector.scalar(3, 16.0 / 9.0)) <= 1e-13


def test_closed_form_plain_base():
    # (1 - e12/2) / (5/4) = 4/5 - (2/5) e12, also the geometric sum of (-e12/2)^k
    val = gf_mon_closed(2, (0, 1), (0.5,), normalization=PLAIN)
    expected = Multivector(2, {0: 0.8, 0b11: -0.4})
    assert mv_error(val, expected) <= 1e-14
    acc = Multivector.scalar(2, 1.0)
    term = Multivector.scalar(2, 1.0)
    step = Multivector.blade(2, 0b11, -0.5)
    for _ in range(60):
        term = term * step
        acc = acc + term
    assert mv_error(val, acc) <= 1e-14


def test_closed_vs_partial_sum():
    rng = np.random.default_rng(41)
    for m in (2, 3, 4):
        for norm in (FACTORIAL, PLAIN):
            bound = 0.5 if norm == FACTORIAL else 0.1
            points = 20 if m < 4 else 6
            for _ in range(points):
                pt = ball_point(rng, m)
                h = half_box_h(rng, m, bound)
                closed = gf_mon_closed(m, pt, h, norm)
                partial = gf_mon_partial_sum(m, pt, h, 30, norm)
                assert mv_error(closed, partial) <= 1e-8


def test_m3_closed_formula_matches_recurrence():
    rng = np.random.default_rng(42)
    for norm in (FACTORIAL, PLAIN):
        bound = 0.5 if norm == FACTORIAL else 0.1
        for _ in range(20):
            pt = ball_point(rng, 3)
            h = half_box_h(rng, 3, bound)
            direct = gf_mon_closed_m3(pt, h, norm)
            generic = gf_mon_closed(3, pt, h, norm)
            assert mv_error(direct, generic) <= 1e-12


def test_closed_form_result_lives_in_even_subalgebra_plus_vector_parts():
    # sanity: the result of the m=3 evaluation only uses blades built from
    # 1, e12, e13, e23, e123 prefactors applied to the exp base
    rng = np.random.default_rng(43)
    pt = ball_point(rng, 3)
    h = half_box_h(rng, 3, 0.4)
    val = gf_mon_closed(3, pt, h)
    assert set(val.terms) <= {0b000, 0b011, 0b101, 0b110}
