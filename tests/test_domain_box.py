"""The float box test decides as the exact rule |h_r| > (1/2) * 4^(r-m).

`_check_point` and `DomainBox.contains` compare floats with one cached table
of float bounds.  Each bound is a power of two, so the float comparison must
decide as the Fraction one on every float, the bounds' neighbours included.
"""

import math
from fractions import Fraction

import pytest

from gtbasis import DomainBox, DomainError, gf_harm_closed, gf_mon_closed
from gtbasis.harmonics import _box_bounds, _check_point


def exact_outside(m, r, v) -> bool:
    return abs(Fraction(v)) > Fraction(1, 2) * Fraction(1, 4) ** (m - r)


def probes(m, r):
    """The bound of h_r, its two float neighbours, both signs."""
    bound = float(Fraction(1, 2) * Fraction(1, 4) ** (m - r))
    for v in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)):
        yield v
        yield -v


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_box_test_matches_the_exact_rule_at_every_bound(m):
    x = [0.0] * m
    for r in range(3, m + 1):
        for v in probes(m, r):
            h = [1e300] + [0.0] * (m - 2)  # h_2 is unconstrained
            h[r - 2] = v
            outside = exact_outside(m, r, v)
            assert DomainBox(m).contains(h) is not outside
            if outside:
                with pytest.raises(DomainError, match="convergence box"):
                    _check_point(m, x, h, unsafe_domain=False)
                with pytest.raises(DomainError, match="convergence box"):
                    gf_mon_closed(m, x, [0.0] + h[1:])
            else:
                assert _check_point(m, x, h, unsafe_domain=False) == (x, h)
                gf_harm_closed(m, x, [0.0] + h[1:])
            assert _check_point(m, x, h, unsafe_domain=True) == (x, h)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_every_bound_at_once(m):
    x = [0.0] * m
    edge = [0.0] + [float(b) for b in DomainBox(m).bounds()[1:]]
    assert DomainBox(m).contains(edge)
    assert _check_point(m, x, edge, unsafe_domain=False) == (x, edge)
    for r in range(3, m + 1):
        past = list(edge)
        past[r - 2] = -math.nextafter(edge[r - 2], math.inf)
        assert not DomainBox(m).contains(past)
        with pytest.raises(DomainError):
            _check_point(m, x, past, unsafe_domain=False)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_nan_is_outside_the_box(m):
    for r in range(3, m + 1):
        h = [0.0] * (m - 1)
        h[r - 2] = float("nan")
        assert not DomainBox(m).contains(h)
        # the point check refuses every non-finite entry before the box test
        with pytest.raises(ValueError, match="finite") as info:
            _check_point(m, [0.0] * m, h, unsafe_domain=False)
        assert not isinstance(info.value, DomainError)


def test_box_bounds_are_the_exact_bounds():
    for m in range(3, 9):
        assert _box_bounds(m) == DomainBox(m).bounds()[1:]
        assert all(type(b) is float for b in _box_bounds(m))
    assert all(isinstance(b, Fraction) for b in DomainBox(6).bounds()[1:])


def test_bound_below_the_float_range_stays_exact():
    # at m = 600 the h_3 bound is 2^-1195, below the smallest subnormal float
    m = 600
    bound = DomainBox(m).bound(3)
    assert _box_bounds(m)[0] == bound and isinstance(_box_bounds(m)[0], Fraction)
    h = [0.0] * (m - 1)
    h[1] = bound
    assert DomainBox(m).contains(h)
    h[1] = bound * Fraction(3, 2)
    assert not DomainBox(m).contains(h)
    h[1] = math.ulp(0.0)
    assert not DomainBox(m).contains(h)
    h[1] = 0.0
    assert DomainBox(m).contains(h)
