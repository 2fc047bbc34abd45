"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and range is pinned here; the runtime caps are asserted.
"""

import time
from fractions import Fraction

import numpy as np

from gtbasis import (CLIFFORD, FACTORIAL, PLAIN, BasisIndex, DomainBox,
                     HSeries, MonIndex, MPoly, Multivector,
                     embedding_F, embedding_X, enumerate_harm_indices,
                     enumerate_mon_indices, gegenbauer_poly, gf_harm_closed,
                     gf_harm_closed_m3, gf_harm_partial_sum, gf_harm_series,
                     gf_mon_closed, gf_mon_closed_m3, gf_mon_partial_sum,
                     gf_mon_series, gf_value, harm_basis, inner_harm,
                     inner_mon, iter_multi_indices, mon_basis)
from gtbasis.gegenbauer import series_oracle
from gtbasis.hseries import binomial_expand, power_series
from gtbasis.mvpoly import radius_squared
from gtbasis.scalars import make_gaussian

NUS_EXACT = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def _x_times_em(m):
    """x*e_m = -x_m + sum_{j<m} x_j e_{jm}, built from raw blades."""
    out = MPoly.variable(m, m, CLIFFORD).scale(-1)
    for j in range(1, m):
        blade = Multivector.blade(m, (1 << (j - 1)) | (1 << (m - 1)))
        out = out + MPoly.variable(m, j, CLIFFORD) * blade
    return out


def _run(num, desc, cap, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {num:2d}: {desc}")
        raise
    dt = time.perf_counter() - t0
    within = cap is None or dt < cap
    cap_txt = f", cap {cap:g}s" if cap else ""
    print(f"{'PASS' if within else 'FAIL'} criterion {num:2d}: {desc} ({dt:.2f}s{cap_txt})")
    assert within, f"criterion {num} runtime {dt:.2f}s exceeded cap {cap}s"


def _ball_point(rng, m):
    while True:
        pt = rng.uniform(-1.0, 1.0, size=m)
        if float(pt @ pt) <= 1.0:
            return [float(v) for v in pt]


def _half_box_h(rng, m, h2_bound):
    box = DomainBox(m)
    h = [float(rng.uniform(-h2_bound, h2_bound))]
    for r in range(3, m + 1):
        b = float(box.bound(r)) / 2.0
        h.append(float(rng.uniform(-b, b)))
    return h


def _mv_error(a, b):
    diff = a - b
    return max((abs(c) for c in diff.terms.values()), default=0.0)


def test_criterion_01_gegenbauer_generating_function():
    def body():
        for nu in NUS_EXACT:
            oracle = series_oracle(nu, 12)
            for k in range(13):
                assert gegenbauer_poly(nu, k).coeffs == oracle[k], (nu, k)
        for nu in NUS_EXACT[:4]:
            polys = [gegenbauer_poly(nu, k) for k in range(31)]
            for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
                for h in (0.25, -0.25, 0.125, -0.125):
                    partial = sum(p(t) * h ** k for k, p in enumerate(polys))
                    assert abs(partial - gf_value(nu, t, h)) <= 1e-10, (nu, t, h)
    _run(1, "Gegenbauer recurrence vs series oracle + float GF grid", 5.0, body)


def test_criterion_02_embedding_factor_generating_function():
    def body():
        for m in (3, 4, 5):
            c1 = MPoly.variable(m, m).scale(-2)
            c2 = radius_squared(m)
            for j in range(4):
                series = binomial_expand(-(Fraction(m, 2) - 1 + j), c1, c2, m, 8)
                for k in range(9):
                    key = (0,) * (m - 2) + (k,)
                    assert series.coefficient(key) == embedding_F(m, j, k), (m, j, k)
    _run(2, "kernel power expansion reproduces harmonic embedding factors", 10.0, body)


def test_criterion_03_clifford_embedding_generating_function():
    def body():
        for m in (3, 4):
            c1 = MPoly.variable(m, m, CLIFFORD).scale(-2)
            c2 = radius_squared(m, ring=CLIFFORD)
            x_em = _x_times_em(m)
            for j in range(4):
                denom = binomial_expand(-(Fraction(m, 2) + j), c1, c2, m, 8)
                prefactor = HSeries(m, 8, CLIFFORD, {
                    (0,) * (m - 1): MPoly.constant(m, 1, CLIFFORD),
                    (0,) * (m - 2) + (1,): x_em,
                })
                series = prefactor * denom
                for k in range(9):
                    key = (0,) * (m - 2) + (k,)
                    assert series.coefficient(key) == embedding_X(m, j, k), (m, j, k)
    _run(3, "prefactored kernel expansion reproduces Clifford embedding factors", 20.0, body)


def test_criterion_04_harmonic_series_extraction():
    def body():
        for m in (2, 3, 4):
            for sign in (+1, -1):
                for norm in (FACTORIAL, PLAIN):
                    series = gf_harm_series(m, 4, sign, norm)
                    for k in iter_multi_indices(m - 1, 4):
                        expected = harm_basis(BasisIndex(k, sign, norm))
                        assert series.coefficient(k) == expected, (m, k, sign, norm)
    _run(4, "harmonic series coefficients equal basis polynomials (m<=4, |k|<=4)", 30.0, body)


def test_criterion_05_monogenic_series_extraction():
    def body():
        for m in (2, 3, 4):
            series = gf_mon_series(m, 3)
            for k in iter_multi_indices(m - 1, 3):
                assert series.coefficient(k) == mon_basis(MonIndex(k)), (m, k)
    _run(5, "monogenic series coefficients equal basis polynomials (m<=4, |k|<=3)", 60.0, body)


def test_criterion_06_dimension_three_closed_formulas():
    def body():
        rng = np.random.default_rng(6)
        for norm in (FACTORIAL, PLAIN):
            bound = 0.5 if norm == FACTORIAL else 0.1
            for _ in range(20):
                x = _ball_point(rng, 3)
                h = _half_box_h(rng, 3, bound)
                for sign in (+1, -1):
                    direct = gf_harm_closed_m3(x, h, sign, norm)
                    generic = gf_harm_closed(3, x, h, sign, norm)
                    partial = gf_harm_partial_sum(3, x, h, 30, sign, norm)
                    assert abs(direct - partial) <= 1e-8
                    assert abs(direct - generic) <= 1e-12 * max(1.0, abs(direct))
                direct_m = gf_mon_closed_m3(x, h, norm)
                generic_m = gf_mon_closed(3, x, h, norm)
                partial_m = gf_mon_partial_sum(3, x, h, 30, norm)
                assert _mv_error(direct_m, partial_m) <= 1e-8
                assert _mv_error(direct_m, generic_m) <= 1e-12
    _run(6, "m=3 closed formulas match series (1e-8) and recurrence (1e-12)", None, body)


def test_criterion_07_kernel_membership():
    def body():
        for m in (2, 3, 4, 5):
            for idx in enumerate_harm_indices(m, 5):
                poly = harm_basis(idx)
                assert poly.laplacian().is_zero(), idx
                assert poly.is_homogeneous(idx.degree()), idx
        for m in (2, 3, 4):
            for idx in enumerate_mon_indices(m, 4):
                poly = mon_basis(idx)
                assert poly.dirac().is_zero(), idx
                assert poly.is_homogeneous(idx.degree()), idx
    _run(7, "exact kernel membership (harm m<=5 deg<=5, mon m<=4 deg<=4)", 60.0, body)


def test_criterion_08_dirac_squares_to_minus_laplacian():
    def body():
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            deg = int(rng.integers(0, 6))
            terms = {}
            for _ in range(6):
                exps = []
                left = deg
                for _ in range(m):
                    e = int(rng.integers(0, left + 1))
                    exps.append(e)
                    left -= e
                coeff = Multivector.blade(m, int(rng.integers(0, 1 << m)),
                                          Fraction(int(rng.integers(-9, 10)),
                                                   int(rng.integers(1, 10))))
                key = tuple(exps)
                terms[key] = terms.get(key, Multivector.zero(m)) + coeff
            poly = MPoly(m, CLIFFORD, terms)
            assert -poly.dirac().dirac() == poly.laplacian()
    _run(8, "-dirac^2 equals laplacian on 100 random Clifford polynomials", None, body)


def test_criterion_09_orthogonality():
    def body():
        for m in (2, 3, 4):
            basis = [(idx, harm_basis(idx)) for idx in enumerate_harm_indices(m, 4)]
            for i, (idx_a, a) in enumerate(basis):
                assert inner_harm(a, a) > 0, idx_a
                for idx_b, b in basis[i + 1:]:
                    assert inner_harm(a, b).is_zero(), (idx_a, idx_b)
        for m in (2, 3):
            basis = [(idx, mon_basis(idx)) for idx in enumerate_mon_indices(m, 3)]
            for i, (idx_a, a) in enumerate(basis):
                assert inner_mon(a, a) > 0, idx_a
                for idx_b, b in basis[i + 1:]:
                    assert inner_mon(a, b).is_zero(), (idx_a, idx_b)
    _run(9, "exact orthogonality and positivity over the unit ball", 120.0, body)


def test_criterion_10_plain_normalization_variants():
    def body():
        # criterion 4 under plain normalization
        for m in (2, 3, 4):
            for sign in (+1, -1):
                series = gf_harm_series(m, 4, sign, PLAIN)
                for k in iter_multi_indices(m - 1, 4):
                    assert series.coefficient(k) == harm_basis(BasisIndex(k, sign, PLAIN))
        # criterion 5 under plain normalization
        for m in (2, 3, 4):
            series = gf_mon_series(m, 3, PLAIN)
            for k in iter_multi_indices(m - 1, 3):
                assert series.coefficient(k) == mon_basis(MonIndex(k, PLAIN))
        # criterion 6 under plain normalization
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = _ball_point(rng, 3)
            h = _half_box_h(rng, 3, 0.1)
            for sign in (+1, -1):
                direct = gf_harm_closed_m3(x, h, sign, PLAIN)
                assert abs(direct - gf_harm_partial_sum(3, x, h, 30, sign, PLAIN)) <= 1e-8
                assert abs(direct - gf_harm_closed(3, x, h, sign, PLAIN)) \
                    <= 1e-12 * max(1.0, abs(direct))
            direct_m = gf_mon_closed_m3(x, h, PLAIN)
            assert _mv_error(direct_m, gf_mon_partial_sum(3, x, h, 30, PLAIN)) <= 1e-8
            assert _mv_error(direct_m, gf_mon_closed(3, x, h, PLAIN)) <= 1e-12
        # criterion 7 under plain normalization
        for m in (2, 3, 4, 5):
            for idx in enumerate_harm_indices(m, 5, PLAIN):
                assert harm_basis(idx).laplacian().is_zero(), idx
        for m in (2, 3, 4):
            for idx in enumerate_mon_indices(m, 4, PLAIN):
                assert mon_basis(idx).dirac().is_zero(), idx
        # the plain m=2 closed form is rational: numerator * geometric series
        # must reproduce sum_k (x1 +/- i x2)^k h^k exactly to order 12
        order = 12
        for sign in (+1, -1):
            p = MPoly(2, "gaussian", {(1, 0): 1, (0, 1): make_gaussian(0, sign)})
            tail = MPoly(2, "gaussian", {(1, 0): -1, (0, 1): make_gaussian(0, sign)})
            c1 = MPoly.variable(2, 1).scale(-2)
            c2 = radius_squared(2)
            geom = binomial_expand(Fraction(-1), c1, c2, 2, order)
            numerator = HSeries(2, order, "gaussian",
                                {(0,): MPoly.constant(2, 1), (1,): tail})
            assert numerator * geom == power_series(p, order)
        p = MPoly(2, CLIFFORD, {(1, 0): Multivector.scalar(2, 1),
                                (0, 1): Multivector.blade(2, 0b11, -1)})
        tail = MPoly(2, CLIFFORD, {(1, 0): Multivector.scalar(2, -1),
                                   (0, 1): Multivector.blade(2, 0b11, -1)})
        c1 = MPoly.variable(2, 1, CLIFFORD).scale(-2)
        c2 = radius_squared(2, ring=CLIFFORD)
        geom = binomial_expand(Fraction(-1), c1, c2, 2, order)
        numerator = HSeries(2, order, CLIFFORD,
                            {(0,): MPoly.constant(2, 1, CLIFFORD), (1,): tail})
        assert numerator * geom == power_series(p, order)
    _run(10, "plain-normalization re-runs + geometric expansion of the rational base", None, body)
