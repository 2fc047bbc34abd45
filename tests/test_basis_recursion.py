"""The bases built by the dimension recursion equal the per-label product.

`harmonics._chain` builds each basis element from the one of its label
prefix, harm_{k_2..k_r} = F^(k_r)_{r,j} * harm_{k_2..k_{r-1}} (X in place of F
for monogenics), caches every prefix and applies the normalization last.
These tests rebuild every label from base^{k_2} on its own, as the product
was written before the cache, and compare polynomial for polynomial.
"""

import math
import random
from fractions import Fraction

import pytest

from gtbasis import (FACTORIAL, PLAIN, BasisIndex, MonIndex, embedding_F, embedding_X,
                     harm_basis, iter_multi_indices, mon_basis)
from gtbasis.harmonics import _base2, _chain
from gtbasis.mvpoly import CLIFFORD, GAUSSIAN

DEG_MAX = 4


def per_label_product(idx, base, factor):
    """factor_m * ... * factor_3 * base^{k_2} (over k_2! if factorial), from scratch."""
    m = idx.m
    poly = base ** idx.k[0]
    if idx.normalization == FACTORIAL:
        poly = poly.scale(Fraction(1, math.factorial(idx.k[0])))
    poly = poly.embed(m)
    for r in range(3, m + 1):
        poly = factor(r, sum(idx.k[:r - 2]), idx.k[r - 2]).embed(m) * poly
    return poly


def _labels(seed):
    """Every harmonic and monogenic label of m = 2..5, |k| <= DEG_MAX, both signs and
    both normalizations, in a seeded shuffled order."""
    labels = []
    for m in range(2, 6):
        for k in iter_multi_indices(m - 1, DEG_MAX):
            for norm in (FACTORIAL, PLAIN):
                labels += [BasisIndex(k, +1, norm), BasisIndex(k, -1, norm), MonIndex(k, norm)]
    random.Random(seed).shuffle(labels)
    return labels


def _build(idx):
    if isinstance(idx, BasisIndex):
        return harm_basis(idx)
    return mon_basis(idx)


def _expected(idx):
    if isinstance(idx, BasisIndex):
        return per_label_product(idx, _base2(idx.sign, GAUSSIAN), embedding_F)
    return per_label_product(idx, _base2(-1, CLIFFORD), embedding_X)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_basis_element_equals_the_per_label_product(seed):
    _chain.cache_clear()
    for idx in _labels(seed):
        poly, expected = _build(idx), _expected(idx)
        assert poly.dim == idx.m, idx
        assert poly == expected, idx
        assert poly.to_json() == expected.to_json(), idx


def test_a_warm_call_returns_the_cold_polynomial():
    labels = _labels(3)
    _chain.cache_clear()
    cold = [_build(idx) for idx in labels]
    assert _chain.cache_info().hits > 0
    warm = [_build(idx) for idx in reversed(labels)][::-1]
    assert warm == cold
    assert [p.to_json() for p in warm] == [p.to_json() for p in cold]


def test_both_normalizations_share_one_chain():
    _chain.cache_clear()
    plain = mon_basis(MonIndex((3, 1, 2), PLAIN))
    misses = _chain.cache_info().misses
    factorial = mon_basis(MonIndex((3, 1, 2), FACTORIAL))
    assert _chain.cache_info().misses == misses
    assert factorial == plain.scale(Fraction(1, 6))


def test_the_factor_multiplies_from_the_left():
    """The Clifford product does not commute, so the factor order is part of the basis."""
    base = _base2(-1, CLIFFORD).embed(3)
    left = embedding_X(4, 2, 1) * (embedding_X(3, 1, 1) * base).embed(4)
    right = (base * embedding_X(3, 1, 1)).embed(4) * embedding_X(4, 2, 1)
    assert mon_basis(MonIndex((1, 1, 1), PLAIN)) == left
    assert left != right
