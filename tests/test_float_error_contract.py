"""The error contract of the float evaluators on inputs from the whole float range.

Every closed form, partial sum and embedding-factor value either returns a
finite value or raises a ValueError: DomainError, SingularityError or the overflow ValueError.  It never
lets an OverflowError or ZeroDivisionError escape and never returns NaN or inf.
Coordinates mix signed zeros, subnormals, magnitudes 1e10..1e308 and values in
[-1, 1]; half the closed-form calls lift the convergence-box check.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtbasis import (FACTORIAL, PLAIN, Multivector, embedding_f_value, embedding_x_value,
                     gf_harm_closed, gf_harm_closed_m3, gf_harm_partial_sum, gf_mon_closed,
                     gf_mon_closed_m3, gf_mon_partial_sum, gf_value)

CONTRACT_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)

signs = st.sampled_from([1.0, -1.0])
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda s, v: s * v, signs, st.floats(5e-324, 2.2250738585072009e-308)),
    st.builds(lambda s, v: s * v, signs, st.floats(1e10, 1e308)),
    st.floats(-1.0, 1.0),
)


def _evaluate(kind, m, x, h, order, sign, norm, unsafe):
    if kind == "harm_closed":
        return gf_harm_closed(m, x, h, sign, norm, unsafe_domain=unsafe)
    if kind == "mon_closed":
        return gf_mon_closed(m, x, h, norm, unsafe_domain=unsafe)
    if kind == "harm_closed_m3":
        return gf_harm_closed_m3(x, h, sign, norm, unsafe_domain=unsafe)
    if kind == "mon_closed_m3":
        return gf_mon_closed_m3(x, h, norm, unsafe_domain=unsafe)
    if kind == "harm_partial_sum":
        return gf_harm_partial_sum(m, x, h, order, sign, norm)
    return gf_mon_partial_sum(m, x, h, order, norm)


@st.composite
def calls(draw):
    kind = draw(st.sampled_from(["harm_closed", "mon_closed", "harm_closed_m3",
                                 "mon_closed_m3", "harm_partial_sum", "mon_partial_sum"]))
    m = 3 if kind.endswith("_m3") else draw(st.integers(2, 5))
    x = draw(st.lists(coordinates, min_size=m, max_size=m))
    h = draw(st.lists(coordinates, min_size=m - 1, max_size=m - 1))
    return (kind, m, x, h, draw(st.integers(0, 8)), draw(st.sampled_from([+1, -1])),
            draw(st.sampled_from([FACTORIAL, PLAIN])), draw(st.booleans()))


def _is_finite(value) -> bool:
    if isinstance(value, Multivector):
        return all(map(math.isfinite, value.terms.values()))
    return cmath.isfinite(value)


@CONTRACT_SETTINGS
@given(calls())
def test_float_evaluators_return_finite_values_or_raise_value_errors(call):
    try:
        value = _evaluate(*call)
    except ValueError:
        # DomainError and SingularityError are ValueErrors too
        return
    assert _is_finite(value), f"{call} -> {value}"


@st.composite
def factor_calls(draw):
    evaluate = draw(st.sampled_from(["f", "x"]))
    m = draw(st.integers(3, 5))
    x = draw(st.lists(coordinates, min_size=m, max_size=m))
    return evaluate, m, draw(st.integers(0, 4)), draw(st.integers(0, 30)), x


@CONTRACT_SETTINGS
@given(factor_calls())
def test_embedding_factor_values_are_finite_or_raise_value_errors(call):
    evaluate, m, j, k, x = call
    try:
        if evaluate == "f":
            value = embedding_f_value(m, j, k, x)
        else:
            value = embedding_x_value(m, m, j, k, x)
    except ValueError:
        return
    assert _is_finite(value), f"{call} -> {value}"


# -- the factor-value entry points name what is wrong with their input --------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate, args, where", [
    (embedding_f_value, (3, 0, 2), 1),
    (embedding_f_value, (4, 1, 3), 3),
    (embedding_x_value, (3, 3, 0, 2), 1),
    (embedding_x_value, (4, 5, 1, 0), 3),
])
def test_factor_values_refuse_a_non_finite_point(evaluate, args, where, bad):
    # these raised the overflow error, "overflows the float range", before
    x = [0.1, 0.2, 0.3, 0.2]
    x[where] = bad
    with pytest.raises(ValueError, match="^a coordinate of x must be finite$"):
        evaluate(*args, x)


_POINT = {"x": [0.1, 0.2, 0.3], "h": [0.1, 0.1]}


# each of the nine float entry points names the argument that holds a nan or an inf
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate, what", [
    (lambda x, h: gf_harm_closed(3, x, h), "x"),
    (lambda x, h: gf_harm_closed(3, x, h), "h"),
    (lambda x, h: gf_harm_closed_m3(x, h, unsafe_domain=True), "x"),
    (lambda x, h: gf_harm_closed_m3(x, h, unsafe_domain=True), "h"),
    (lambda x, h: gf_mon_closed(3, x, h), "x"),
    (lambda x, h: gf_mon_closed(3, x, h), "h"),
    (lambda x, h: gf_mon_closed_m3(x, h), "x"),
    (lambda x, h: gf_mon_closed_m3(x, h), "h"),
    (lambda x, h: gf_harm_partial_sum(3, x, h, 2), "x"),
    (lambda x, h: gf_harm_partial_sum(3, x, h, 2), "h"),
    (lambda x, h: gf_mon_partial_sum(3, x, h, 2), "x"),
    (lambda x, h: gf_mon_partial_sum(3, x, h, 2), "h"),
    (lambda x, h: embedding_f_value(3, 0, 2, x), "x"),
    (lambda x, h: embedding_x_value(3, 3, 0, 2, x), "x"),
], ids=[f"{kind}-{what}" for kind in ("harm-closed", "harm-closed-m3", "mon-closed",
                                      "mon-closed-m3", "harm-partial-sum", "mon-partial-sum")
        for what in ("x", "h")] + ["f-value-x", "x-value-x"])
def test_a_non_finite_coordinate_is_named(evaluate, what, bad):
    point = {key: list(value) for key, value in _POINT.items()}
    point[what][1] = bad
    with pytest.raises(ValueError, match=f"^a coordinate of {what} must be finite$"):
        evaluate(**point)


# the coordinates are finite though their sum is not: no refusal, and the value at order 0 is 1
def test_finite_coordinates_whose_sum_overflows_are_finite():
    assert gf_harm_partial_sum(3, [0.0, 0.0, 0.0], [1e308, 1e308], 0) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("what", ["t", "h"])
def test_gf_value_names_a_non_finite_argument(what, bad):
    args = {"t": 0.1, "h": 0.2, what: bad}
    with pytest.raises(ValueError, match=f"^{what} must be finite$"):
        gf_value(1, **args)


@pytest.mark.parametrize("evaluate, args", [
    (embedding_f_value, (3, 0, 2)),
    (embedding_x_value, (3, 3, 0, 2)),
])
def test_factor_values_with_a_finite_point_beyond_the_float_range_overflow(evaluate, args):
    # |x|^2 = 1e400 is not a float, though every coordinate is finite
    with pytest.raises(ValueError, match="overflows the float range"):
        evaluate(*args, [1e200, 0.0, 0.1])


def test_embedding_x_value_names_top_below_m():
    # this said "blade mask 0b1001 exceeds dimension 3" before
    x = [0.1, 0.2, 0.3, 0.2]
    with pytest.raises(ValueError, match="top must be at least m = 4, got 3"):
        embedding_x_value(4, 3, 0, 2, x)
    with pytest.raises(ValueError, match="top must be an integer"):
        embedding_x_value(4, 4.0, 0, 2, x)
    assert embedding_x_value(4, 4, 0, 2, x).dim == 4
