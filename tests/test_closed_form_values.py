"""Closed-form fast paths: dense monogenic prefactor products and Multivector
construction.

`gf_mon_closed` keeps its value as a dense blade list.  It must give the
bits of the sparse formula it replaced, copied below: each prefactor
1 + x h_r e_r built as a sparse Multivector and multiplied from the left.
"""

import math
import random
from fractions import Fraction

import pytest

from gtbasis import FACTORIAL, PLAIN, DomainBox, Multivector, gf_mon_closed, make_gaussian

E12 = 0b11


def sparse_prefactor(m, r, x, hr):
    terms = {0: 1.0 - x[r - 1] * hr}
    er = 1 << (r - 1)
    for j in range(1, r):
        terms[(1 << (j - 1)) | er] = x[j - 1] * hr
    return Multivector(m, terms)


def sparse_mon_closed(m, x, h, normalization):
    levels = []
    for r in range(m, 2, -1):
        r2 = sum(v * v for v in x[:r])
        d = 1.0 - 2.0 * x[r - 1] * h[r - 2] + h[r - 2] * h[r - 2] * r2
        levels.append((r, d, h[r - 2]))
        h = [v / d for v in h[: r - 2]]
    x1, x2, h2 = x[0], x[1], h[0]
    scale = 1.0
    for r, d, _ in levels:
        scale *= d ** (-r / 2.0)
    if normalization == FACTORIAL:
        e = math.exp(x1 * h2)
        base = Multivector(m, {0: e * math.cos(x2 * h2), E12: -e * math.sin(x2 * h2)})
    else:
        denom = 1.0 - 2.0 * x1 * h2 + h2 * h2 * (x1 * x1 + x2 * x2)
        base = Multivector(m, {0: (1.0 - x1 * h2) / denom, E12: -x2 * h2 / denom})
    value = base.scale(scale)
    for r, _, hr in reversed(levels):
        value = sparse_prefactor(m, r, x, hr) * value
    return value


def in_box_point(rng, m):
    while True:
        x = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        if sum(v * v for v in x) <= 1.0:
            break
    h = [rng.uniform(-0.9, 0.9)]
    h += [rng.uniform(-1.0, 1.0) * float(b) for b in DomainBox(m).bounds()[1:]]
    return x, h


@pytest.mark.parametrize("normalization", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_dense_mon_closed_is_bit_identical_to_the_sparse_product(m, normalization):
    rng = random.Random(f"dense-mon:{m}:{normalization}")
    for _ in range(500):
        x, h = in_box_point(rng, m)
        value = gf_mon_closed(m, x, h, normalization)
        expected = sparse_mon_closed(m, x, h, normalization)
        assert value.dim == expected.dim == m
        assert value.terms == expected.terms
        assert all(type(c) is float for c in value.terms.values())


def test_dense_mon_closed_keeps_exact_zero_blades_out():
    value = gf_mon_closed(4, [0.5, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    assert set(value.terms) == {0}


# -- Multivector construction ------------------------------------------------


@pytest.mark.parametrize("bad", ["1", None, [1.0], object()])
def test_multivector_rejects_non_numbers(bad):
    with pytest.raises(TypeError, match="unsupported coefficient type"):
        Multivector(2, {1: bad})
    with pytest.raises(TypeError, match="unsupported coefficient type"):
        Multivector(2, {0: 1.0, 1: bad})


@pytest.mark.parametrize("terms", [
    {0: Fraction(1, 2), 1: 0.5},
    {0: 0.5, 1: 1},
    {0: 1j, 3: make_gaussian(0, 1)},
    {0: 2, 1: 0.0},
])
def test_multivector_rejects_mixed_exact_and_float(terms):
    with pytest.raises(ValueError, match="mixed"):
        Multivector(2, terms)


def test_multivector_coerces_ints_and_drops_zeros():
    mv = Multivector(3, {0: 2, 1: True, 2: 0, 4: Fraction(0), 5: Fraction(3, 4)})
    assert mv.terms == {0: Fraction(2), 1: Fraction(1), 5: Fraction(3, 4)}
    assert all(type(c) is Fraction for c in (mv.terms[0], mv.terms[1]))
    fl = Multivector(3, {0: 1.5, 1: 0.0, 2: -0.0, 3: 0j, 4: 2j})
    assert fl.terms == {0: 1.5, 4: 2j}
    with pytest.raises(ValueError, match="exceeds dimension"):
        Multivector(2, {4: 1.0})


def test_multivector_operators_with_scalars():
    e1 = Multivector.basis_vector(2, 1)
    assert e1 * 2 == Multivector(2, {1: 2})
    assert 0.5 * e1 == Multivector(2, {1: 0.5})
    assert (e1 + 1) - 1 == e1
    assert e1 * e1 == -1
    assert (e1 == "e1") is False
    with pytest.raises(TypeError):
        e1 * "x"
