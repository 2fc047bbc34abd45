"""The ball pairing groups integer weights by exponent vector before integrating.

inner_harm, inner_mon and inner_mon_full must equal the plain per-term-pair
formula, kept here as the reference: for every pair of terms,
conj(a) * b * (the ball integral of x^(ea + eb)), summed per blade.
"""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_mpoly_properties import PROPERTY_SETTINGS, polys

from gtbasis import (CLIFFORD, GAUSSIAN, BasisIndex, MonIndex, MPoly, Multivector, PiScaled,
                     enumerate_harm_indices, enumerate_mon_indices, harm_basis, inner_harm,
                     inner_mon, inner_mon_full, mon_basis)
from gtbasis.ballint import _classes, monomial_ball_integral, pi_power
from gtbasis.clifford import E12, blade_sign
from gtbasis.scalars import make_gaussian


def pairing_reference(p, q) -> dict:
    acc: dict = {}
    for (ea, ba), ca in p.conjugate().terms.items():
        for (eb, bb), cb in q.terms.items():
            integral = monomial_ball_integral(p.dim, tuple(map(add, ea, eb)))
            acc[ba ^ bb] = acc.get(ba ^ bb, 0) + blade_sign(ba, bb) * ca * cb * integral.q
    return acc


def assert_pairings_match(p, q) -> None:
    acc = pairing_reference(p, q)
    s = pi_power(p.dim)
    if p.ring == GAUSSIAN:
        expected = PiScaled(make_gaussian(acc.get(0, 0), acc.get(E12, 0)), s)
        assert inner_harm(p, q) == expected
    else:
        full = Multivector(p.dim, acc)
        assert inner_mon_full(p, q) == (full, s)
        assert inner_mon(p, q) == PiScaled(full.scalar_part(), s)


@st.composite
def pairs(draw):
    m = draw(st.integers(1, 4))
    ring = draw(st.sampled_from((GAUSSIAN, CLIFFORD)))
    return draw(polys(m, ring)), draw(polys(m, ring))


@PROPERTY_SETTINGS
@given(pairs())
def test_pairing_equals_the_per_term_pair_formula(pq):
    p, q = pq
    assert_pairings_match(p, q)
    assert_pairings_match(q, p)
    assert_pairings_match(p, p)


def test_pairing_of_basis_elements_equals_the_per_term_pair_formula():
    # Gram entries of the bases: the off-diagonal weights cancel to zero
    harm = [harm_basis(idx) for idx in enumerate_harm_indices(4, 2)]
    mon = [mon_basis(idx) for idx in enumerate_mon_indices(4, 2)]
    for basis in (harm, mon):
        for p in basis[::3]:
            for q in basis[::2]:
                assert_pairings_match(p, q)


def test_pairing_divides_by_both_denominators():
    p = harm_basis(BasisIndex((1, 1), +1)).scale(Fraction(1, 6))
    q = harm_basis(BasisIndex((1, 1), +1)).scale(Fraction(5, 4))
    assert inner_harm(p, q) == inner_harm(p, p) * Fraction(15, 2)
    r = mon_basis(MonIndex((1, 1))).scale(Fraction(2, 9))
    assert inner_mon(r, r) == inner_mon(r.scale(3), r.scale(3)) * Fraction(1, 9)


# -- the parity index, built once per polynomial ------------------------------------


def _mixed(ring):
    """A polynomial with terms in several parity classes and, on the clifford ring, blades."""
    m = 3
    x = [MPoly.variable(m, j, ring) for j in (1, 2, 3)]
    blade = Multivector(m, {0b011: 1}) if ring == CLIFFORD else make_gaussian(0, 1)
    return (x[0] * x[0] + x[1] * x[2] * Fraction(2, 3) + x[0] * blade
            + x[2] * x[2] * x[2] * Fraction(-5, 7) + MPoly.constant(m, 1, ring))


def test_classes_are_built_once_per_polynomial():
    p = _mixed(GAUSSIAN)
    classes = _classes(p, 3)
    assert _classes(p, 3) is classes
    assert set(classes) == {(0, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 1)}
    assert _classes(MPoly.from_json(p.to_json()), 3) is not classes


@pytest.mark.parametrize("ring", [GAUSSIAN, CLIFFORD])
def test_a_paired_polynomial_keeps_its_equality_hash_and_json(ring):
    p = _mixed(ring)
    fresh = MPoly.from_json(p.to_json())
    (inner_harm if ring == GAUSSIAN else inner_mon_full)(p, p)
    assert p == fresh and fresh == p
    assert hash(p) == hash(fresh)
    assert p.to_json() == fresh.to_json()
    assert dict(p.terms) == dict(fresh.terms)


@pytest.mark.parametrize("ring", [GAUSSIAN, CLIFFORD])
def test_one_polynomial_reused_across_many_pairings_matches_the_reference(ring):
    # a stale or shared index would pair p's terms with another polynomial's
    p = _mixed(ring)
    m = p.dim
    x = [MPoly.variable(m, j, ring) for j in (1, 2, 3)]
    others = [p, p.scale(3), p + x[1], x[0], x[1] * x[2], x[2] * x[2] - x[0] * x[0],
              MPoly.constant(m, Fraction(1, 2), ring), MPoly.zero(m, ring)]
    for _ in range(2):
        for q in others:
            assert_pairings_match(p, q)
            assert_pairings_match(q, p)
            assert_pairings_match(q, q)


@pytest.mark.parametrize("pair", [inner_harm, inner_mon])
def test_a_pair_with_no_shared_parity_class_is_the_canonical_zero(pair):
    ring = GAUSSIAN if pair is inner_harm else CLIFFORD
    p, q = MPoly.variable(3, 1, ring), MPoly.constant(3, 5, ring) + MPoly.variable(3, 2, ring)
    assert _classes(p, 2).keys().isdisjoint(_classes(q, 2))
    for value in (pair(p, q), pair(q, p)):
        assert value == PiScaled.zero()
        assert value.to_json() == PiScaled.zero().to_json()
        assert (value.q, value.s) == (Fraction(0), 0) and type(value.q) is Fraction
