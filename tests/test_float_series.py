"""The float series evaluators against exact and term-by-term references.

`embedding_f_value` is checked against exact rational evaluation of the
embedding factor, and the partial sums against a plain sum over every
multi-index of the exact basis polynomials evaluated at the point.  Neither
reference shares code with the float evaluators under test.
"""

from fractions import Fraction

import pytest

from gtbasis import (FACTORIAL, PLAIN, BasisIndex, MonIndex, Multivector, embedding_F,
                     embedding_f_value, gegenbauer_poly, gf_harm_partial_sum,
                     gf_mon_partial_sum, harm_basis, iter_multi_indices, mon_basis)

POINTS = {
    3: (0.5, -0.25, 0.75),
    4: (0.375, 0.5, -0.125, 0.625),
    5: (-0.25, 0.125, 0.5, 0.375, -0.5),
}


def _exact_f(m: int, j: int, k: int, x) -> Fraction:
    """F^(k)_{m,j}(x) = sum_i c_i x_m^i |x|_m^(k-i), in exact rationals."""
    coords = [Fraction(v) for v in x[:m]]
    r2 = sum(c * c for c in coords)
    coeffs = gegenbauer_poly(Fraction(m, 2) + j - 1, k).coeffs
    return sum((c * coords[-1] ** i * r2 ** ((k - i) // 2)
                for i, c in enumerate(coeffs) if c), Fraction(0))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_exact_reference_is_embedding_F(m):
    x = POINTS[m]
    for j in range(3):
        for k in range(7):
            assert _exact_f(m, j, k, x) == embedding_F(m, j, k).eval(
                [Fraction(v) for v in x])


@pytest.mark.parametrize("m", [3, 4, 5])
def test_embedding_f_value_matches_exact_evaluation(m):
    x = POINTS[m]
    worst = 0.0
    for j in range(4):
        for k in range(31):
            exact = _exact_f(m, j, k, x)
            if exact == 0:
                assert embedding_f_value(m, j, k, x) == 0.0
                continue
            err = abs((Fraction(embedding_f_value(m, j, k, x)) - exact) / exact)
            worst = max(worst, float(err))
    assert worst <= 1e-12


def test_embedding_f_value_conventions():
    assert embedding_f_value(3, 0, -1, POINTS[3]) == 0.0
    assert embedding_f_value(4, 1, 0, POINTS[4]) == 1.0
    for bad in ((2, 0, 1), (3, -1, 1), (3, 0, -2)):
        with pytest.raises(ValueError):
            embedding_f_value(*bad, POINTS[3])


def test_embedding_f_value_squares_as_the_closed_forms_do():
    # |x|_m^2 is summed from v * v, the correctly rounded square; glibc's v ** 2
    # gives a neighbouring float for this v
    v = -0.000322255896563137
    assert embedding_f_value(3, 0, 2, [v, 0.0, 0.0]) == -(v * v) / 2


def _h(m: int) -> list:
    return [0.3, -0.2, 0.05, -0.01][: m - 1]


def _component_gap(a: Multivector, b: Multivector) -> float:
    return max((abs(c) for c in (a - b).terms.values()), default=0.0)


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_harm_partial_sum_is_the_sum_of_its_terms(m, norm):
    x, h, order = POINTS[m], _h(m), 6
    for sign in (+1, -1):
        expected = complex(0.0)
        for k in iter_multi_indices(m - 1, order):
            hk = 1.0
            for hr, kr in zip(h, k):
                hk *= hr ** kr
            expected += harm_basis(BasisIndex(k, sign, norm)).eval(x) * hk
        got = gf_harm_partial_sum(m, x, h, order, sign, norm)
        assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_mon_partial_sum_is_the_sum_of_its_terms(m, norm):
    x, h, order = POINTS[m], _h(m), 6
    expected = Multivector.zero(m)
    for k in iter_multi_indices(m - 1, order):
        hk = 1.0
        for hr, kr in zip(h, k):
            hk *= hr ** kr
        expected = expected + mon_basis(MonIndex(k, norm)).eval(x).scale(hk)
    got = gf_mon_partial_sum(m, x, h, order, norm)
    assert _component_gap(got, expected) <= 1e-12
