"""The ball pairing groups integer weights by exponent vector before integrating.

inner_harm, inner_mon and inner_mon_full must equal the plain per-term-pair
formula, kept here as the reference: for every pair of terms,
conj(a) * b * (the ball integral of x^(ea + eb)), summed per blade.
"""

from fractions import Fraction
from operator import add

from hypothesis import given
from hypothesis import strategies as st
from test_mpoly_properties import PROPERTY_SETTINGS, polys

from gtbasis import (CLIFFORD, GAUSSIAN, BasisIndex, MonIndex, Multivector, PiScaled,
                     enumerate_harm_indices, enumerate_mon_indices, harm_basis, inner_harm,
                     inner_mon, inner_mon_full, make_gaussian, mon_basis,
                     monomial_ball_integral, pi_power)
from gtbasis.clifford import E12, blade_sign


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
