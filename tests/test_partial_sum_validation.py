"""Dimension, point and order checks of the float evaluators.

A dimension below 2, a wrong coordinate count, a non-finite coordinate or a
negative order raises a ValueError that names the problem; none of them is
evaluated.
"""

import math

import pytest

from gtbasis import (gf_harm_closed, gf_harm_partial_sum, gf_mon_closed,
                     gf_mon_partial_sum)

PARTIAL_SUMS = (gf_harm_partial_sum, gf_mon_partial_sum)


@pytest.mark.parametrize("closed", [gf_harm_closed, gf_mon_closed])
@pytest.mark.parametrize("unsafe", [False, True])
def test_closed_forms_reject_dimension_below_two(closed, unsafe):
    with pytest.raises(ValueError, match="at least 2"):
        closed(1, [0.5], [], unsafe_domain=unsafe)


@pytest.mark.parametrize("partial_sum", PARTIAL_SUMS)
def test_partial_sums_reject_dimension_below_two(partial_sum):
    with pytest.raises(ValueError, match="at least 2"):
        partial_sum(1, [0.5], [], 3)


@pytest.mark.parametrize("partial_sum", PARTIAL_SUMS)
@pytest.mark.parametrize("x, h, message", [
    ([0.5, 0.1], [0.1, 0.1], "x needs 3"),
    ([0.5, 0.1, 0.1, 0.1], [0.1, 0.1], "x needs 3"),
    ([0.5, 0.1, 0.1], [0.1], "h needs 2"),
    ([0.5, 0.1, 0.1], [0.1, 0.1, 0.1], "h needs 2"),
])
def test_partial_sums_reject_wrong_coordinate_counts(partial_sum, x, h, message):
    with pytest.raises(ValueError, match=message):
        partial_sum(3, x, h, 3)


@pytest.mark.parametrize("partial_sum", PARTIAL_SUMS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x1", "x3", "h2", "h3"])
def test_partial_sums_reject_non_finite_points(partial_sum, bad, where):
    x, h = [0.5, 0.1, 0.1], [0.1, 0.1]
    coords, i = (x, int(where[1]) - 1) if where[0] == "x" else (h, int(where[1]) - 2)
    coords[i] = bad
    with pytest.raises(ValueError, match="finite"):
        partial_sum(3, x, h, 3)


@pytest.mark.parametrize("partial_sum", PARTIAL_SUMS)
@pytest.mark.parametrize("m", [2, 3])
def test_partial_sums_reject_negative_order(partial_sum, m):
    x = [0.5, 0.1, 0.1][:m]
    h = [0.1, 0.1][:m - 1]
    with pytest.raises(ValueError, match="order"):
        partial_sum(m, x, h, -1)


@pytest.mark.parametrize("partial_sum", PARTIAL_SUMS)
def test_partial_sums_skip_the_domain_box(partial_sum):
    # The partial sum is a plain series sum: a point outside the certified box
    # (|h_3| > 1/2) is summed, not refused.
    value = partial_sum(3, [0.1, 0.1, 0.1], [0.1, 0.9], 0)
    assert value == 1
