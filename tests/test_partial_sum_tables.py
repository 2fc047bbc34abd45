"""The tabulated float partial sums against the per-term algorithm they replace.

The partial sums read every embedding-factor value from one table per
dimension and split each Clifford factor as a + b*U_r.  The references here
spell out the plain sum over every multi-index k with |k| <= order, one
`embedding_f_value` or `embedding_x_value` call per factor, as the sums were
computed before the tables.
"""

import math
import random

import pytest

from gtbasis import (FACTORIAL, PLAIN, DomainBox, Multivector, embedding_f_value,
                     embedding_x_value, gf_harm_partial_sum, gf_mon_closed,
                     gf_mon_partial_sum, iter_multi_indices)
from gtbasis.harmonics import _f_table
from gtbasis.verify import GF_TOL

E12 = 0b11

POINTS = {
    3: (0.5, -0.25, 0.75),
    4: (0.375, 0.5, -0.125, 0.625),
    5: (-0.25, 0.125, 0.5, 0.375, -0.5),
}
H = {
    3: (0.4, -0.3),
    4: (0.3, 0.1, -0.2),
    5: (-0.2, 0.02, -0.06, 0.25),
}


def _h_power(h, k) -> float:
    out = 1.0
    for hr, kr in zip(h, k):
        out *= hr ** kr
    return out


def _reference_harm(m, x, h, order, sign, norm) -> complex:
    total = complex(0.0)
    for k in iter_multi_indices(m - 1, order):
        term = complex(x[0], sign * x[1]) ** k[0]
        if norm == FACTORIAL:
            term /= math.factorial(k[0])
        j = k[0]
        for r in range(3, m + 1):
            term *= embedding_f_value(r, j, k[r - 2], x)
            j += k[r - 2]
        total += term * _h_power(h, k)
    return total


def _reference_mon(m, x, h, order, norm) -> Multivector:
    base = Multivector(m, {0: x[0], E12: -x[1]})
    total = Multivector.zero(m)
    for k in iter_multi_indices(m - 1, order):
        term = Multivector.scalar(m, 1.0)
        for _ in range(k[0]):
            term = term * base
        if norm == FACTORIAL:
            term = term.scale(1.0 / math.factorial(k[0]))
        j = k[0]
        for r in range(3, m + 1):
            term = embedding_x_value(r, m, j, k[r - 2], x) * term
            j += k[r - 2]
        total = total + term.scale(_h_power(h, k))
    return total


def _component_gap(a: Multivector, b: Multivector) -> float:
    return max((abs(c) for c in (a - b).terms.values()), default=0.0)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_embedding_f_value_is_the_table_entry(m):
    x = POINTS[m]
    table = _f_table(m, 30, x)
    assert len(table) == 31
    for j, row in enumerate(table):
        assert len(row) == 31 - j
        for k, value in enumerate(row):
            assert embedding_f_value(m, j, k, x) == value


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_harm_partial_sum_matches_the_per_term_reference(m, norm):
    x, h = POINTS[m], H[m]
    for sign in (+1, -1):
        expected = _reference_harm(m, x, h, 12, sign, norm)
        assert abs(gf_harm_partial_sum(m, x, h, 12, sign, norm) - expected) <= 1e-12


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_mon_partial_sum_matches_the_per_term_reference(m, norm):
    x, h = POINTS[m], H[m]
    expected = _reference_mon(m, x, h, 12, norm)
    assert _component_gap(gf_mon_partial_sum(m, x, h, 12, norm), expected) <= 1e-12


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_mon_partial_sum_m5_order_30_matches_the_closed_form(norm):
    rng = random.Random(5)
    box = DomainBox(5)
    h2_bound = 0.5 if norm == FACTORIAL else 0.1
    for _ in range(5):
        while True:
            x = [rng.uniform(-1.0, 1.0) for _ in range(5)]
            if sum(v * v for v in x) <= 1.0:
                break
        h = [rng.uniform(-h2_bound, h2_bound)]
        h += [rng.uniform(-1.0, 1.0) * float(box.bound(r)) for r in range(3, 6)]
        closed = gf_mon_closed(5, x, h, norm)
        assert _component_gap(closed, gf_mon_partial_sum(5, x, h, 30, norm)) <= GF_TOL
