"""Truncated series: Cauchy product, binomial expansion, dimension lifts."""

from fractions import Fraction

import numpy as np
import pytest

from gtbasis import (CLIFFORD, GAUSSIAN, HSeries, MPoly,
                     Multivector, embedding_F,
                     harm_basis, BasisIndex, lift_step,
                     gf_harm_series, gf_mon_series)
from gtbasis.hseries import binomial_expand, exp_series, power_series
from gtbasis.mvpoly import radius_squared
from gtbasis.scalars import make_gaussian

I = make_gaussian(0, 1)


def const(m, v, ring=GAUSSIAN):
    return MPoly.constant(m, v, ring)


def x(m, j, ring=GAUSSIAN):
    return MPoly.variable(m, j, ring)


def test_product_of_one_plus_minus_h2():
    a = HSeries(2, 2, GAUSSIAN, {(0,): const(2, 1), (1,): const(2, 1)})
    b = HSeries(2, 2, GAUSSIAN, {(0,): const(2, 1), (1,): const(2, -1)})
    assert a * b == HSeries(2, 2, GAUSSIAN,
                            {(0,): const(2, 1), (2,): const(2, -1)})


def test_product_in_distinct_variables():
    a = HSeries(3, 2, GAUSSIAN, {(1, 0): x(3, 1)})
    b = HSeries(3, 2, GAUSSIAN, {(0, 1): x(3, 2)})
    assert (a * b).coefficient((1, 1)) == x(3, 1) * x(3, 2)


def test_clifford_product_with_contraction():
    # (1 + ux h3 e3) * (e3 h3) = e3 h3 - ux h3^2 with ux = x1 e1 + x2 e2
    ux_e3 = x(3, 1, CLIFFORD) * Multivector.blade(3, 0b101) \
        + x(3, 2, CLIFFORD) * Multivector.blade(3, 0b110)
    a = HSeries(3, 2, CLIFFORD, {(0, 0): const(3, 1, CLIFFORD), (0, 1): ux_e3})
    b = HSeries(3, 2, CLIFFORD,
                {(0, 1): const(3, Multivector.basis_vector(3, 3), CLIFFORD)})
    prod = a * b
    ux = x(3, 1, CLIFFORD) * Multivector.basis_vector(3, 1) \
        + x(3, 2, CLIFFORD) * Multivector.basis_vector(3, 2)
    assert prod.coefficient((0, 1)) == const(3, Multivector.basis_vector(3, 3), CLIFFORD)
    assert prod.coefficient((0, 2)) == -ux


def test_binomial_with_zero_coefficients_is_one():
    s = binomial_expand(Fraction(-7, 3), MPoly.zero(3), MPoly.zero(3), 3, 4)
    assert s == HSeries.one(3, 4)


def test_binomial_reproduces_embedding_factors():
    c1 = x(3, 3).scale(-2)
    c2 = radius_squared(3)
    s = binomial_expand(Fraction(-1, 2), c1, c2, 3, 6)
    assert s.coefficient((0, 1)) == x(3, 3)
    for k in range(7):
        assert s.coefficient((0, k)) == embedding_F(3, 0, k)


def test_binomial_alpha_minus_three_halves():
    # d/dh of d^(-3/2) at h=0 gives 3*x3 (the nu-shifted factor F^(1)_{3,1})
    s = binomial_expand(Fraction(-3, 2), x(3, 3).scale(-2), radius_squared(3), 3, 2)
    assert s.coefficient((0, 1)) == x(3, 3).scale(3)
    assert s.coefficient((0, 1)) == embedding_F(3, 1, 1)


def test_exp_series_of_zero():
    assert exp_series(MPoly.zero(2), 3) == HSeries.one(2, 3)


def test_exp_series_coefficients():
    p = x(2, 1) + x(2, 2).scale(I)
    s = exp_series(p, 5)
    import math
    for k in range(6):
        assert s.coefficient((k,)) == (p ** k).scale(Fraction(1, math.factorial(k)))


def test_exp_series_clifford_square():
    p = MPoly(2, CLIFFORD, {(1, 0): Multivector.scalar(2, 1),
                            (0, 1): Multivector.blade(2, 0b11, -1)})
    s = exp_series(p, 2)
    expected = (x(2, 1, CLIFFORD) ** 2 - x(2, 2, CLIFFORD) ** 2
                + x(2, 1, CLIFFORD) * x(2, 2, CLIFFORD)
                * Multivector.blade(2, 0b11, -2)).scale(Fraction(1, 2))
    assert s.coefficient((2,)) == expected


def test_power_series_has_no_factorials():
    p = x(2, 1) + x(2, 2).scale(I)
    s = power_series(p, 4)
    for k in range(5):
        assert s.coefficient((k,)) == p ** k


def test_lift_of_constant_series_gives_embedding_factors():
    s = lift_step(HSeries.one(2, 4))
    for k in range(5):
        assert s.coefficient((0, k)) == embedding_F(3, 0, k)


def test_monogenic_lift_of_constant_series():
    s = lift_step(HSeries.one(2, 3, CLIFFORD))
    expected_h3 = x(3, 3, CLIFFORD).scale(2) \
        + x(3, 1, CLIFFORD) * Multivector.blade(3, 0b101) \
        + x(3, 2, CLIFFORD) * Multivector.blade(3, 0b110)
    assert s.coefficient((0, 0)) == const(3, 1, CLIFFORD)
    assert s.coefficient((0, 1)) == expected_h3


def test_lift_of_exp_base():
    base = exp_series(x(2, 1) + x(2, 2).scale(I), 2)
    s = lift_step(base)
    assert s.coefficient((1, 1)) == harm_basis(BasisIndex((1, 1), +1))
    assert s.coefficient((1, 1)) == (x(3, 3) * (x(3, 1) + x(3, 2).scale(I))).scale(3)


def test_truncation_consistency():
    base = exp_series(x(2, 1) + x(2, 2).scale(I), 4)
    full = lift_step(base)
    low = {k: p for k, p in full.terms.items() if sum(k) <= 2}
    truncated = {k: p for k, p in base.terms.items() if sum(k) <= 2}
    assert low == lift_step(HSeries(2, 2, GAUSSIAN, truncated)).terms


def test_lift_keeps_the_order_of_its_series():
    harm = lift_step(gf_harm_series(2, 3))
    assert harm.order == 3
    assert harm == gf_harm_series(3, 3)
    mon = lift_step(gf_mon_series(3, 2))
    assert mon.order == 2
    assert mon == gf_mon_series(4, 2)


def test_cauchy_product_associative():
    rng = np.random.default_rng(21)

    def rnd_series(ring):
        terms = {}
        for k in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
            exps = (int(rng.integers(0, 2)), int(rng.integers(0, 2)), 0)
            coeff = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            if ring == CLIFFORD:
                coeff = Multivector.blade(3, int(rng.integers(0, 8)), coeff)
            terms[k] = MPoly.monomial(3, exps, coeff, ring)
        return HSeries(3, 3, ring, terms)

    for ring in (GAUSSIAN, CLIFFORD):
        for _ in range(5):
            a, b, c = (rnd_series(ring) for _ in range(3))
            assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("ring", [GAUSSIAN, CLIFFORD])
def test_absent_coefficient_is_the_zero_of_the_series_space(ring):
    series = HSeries(3, 2, ring, {(0, 0): const(3, 1, ring), (1, 0): x(3, 1, ring)})
    assert series.coefficient((1, 0)) is series.terms[(1, 0)]
    for k in ((0, 1), (1, 1), (0, 2)):
        zero = series.coefficient(k)
        assert zero.is_zero() and (zero.dim, zero.ring) == (3, ring)
        assert zero == MPoly.zero(3, ring)
    with pytest.raises(ValueError, match="beyond the series order"):
        series.coefficient((2, 1))


@pytest.mark.parametrize("dim, ring", [(0, GAUSSIAN), (-1, GAUSSIAN), (2, "x"), (2.5, CLIFFORD)])
def test_zero_polynomial_refuses_a_bad_space(dim, ring):
    with pytest.raises(ValueError):
        MPoly.zero(dim, ring)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        HSeries.one(2, 2) * HSeries.one(3, 2)


# the constructor dropped such a term without a word: the series had 0 terms
@pytest.mark.parametrize("ring", [GAUSSIAN, CLIFFORD])
def test_a_term_beyond_the_order_is_refused_as_the_reader_refuses_it(ring):
    terms = {(2, 0): const(3, 1, ring)}
    refusal = r"the term at h\^\(2, 0\) is beyond the order 1"
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        HSeries(3, 1, ring, terms)
    document = {**HSeries(3, 2, ring, terms).to_json(), "order": 1}
    with pytest.raises(ValueError, match=f"^malformed HSeries document: {refusal}$"):
        HSeries.from_json(document)


def test_json_round_trip():
    s = lift_step(HSeries.one(2, 3, CLIFFORD))
    assert HSeries.from_json(s.to_json()) == s


@pytest.mark.parametrize("ring", [GAUSSIAN, CLIFFORD])
def test_json_round_trip_keeps_ring(ring):
    empty = HSeries(3, 2, ring)
    data = empty.to_json()
    assert data["ring"] == ring
    assert HSeries.from_json(data).ring == ring
    assert HSeries.from_json(data) == empty
    full = lift_step(HSeries.one(2, 2, ring))
    data = full.to_json()
    assert "ring" not in data  # non-empty series JSON is unchanged
    assert HSeries.from_json(data).ring == ring
    assert HSeries.from_json(data) == full


def test_json_unknown_ring_rejected():
    with pytest.raises(ValueError, match="unknown ring"):
        HSeries.from_json({"m": 3, "order": 2, "terms": [], "ring": "quaternion"})
