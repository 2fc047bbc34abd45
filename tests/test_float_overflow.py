"""A generating-function value beyond the float range is a ValueError (CLI exit 2).

Before, `math.exp` and `cmath.exp` raised an uncaught OverflowError, whose
traceback exits 1: the code `verify` uses for failed checks.  Under
unsafe_domain a kernel, denominator or value that is inf or NaN is the same
ValueError; it used to come back as NaN, inf or a silent 0.  The partial sums,
which take any finite point, follow the same rule.
"""

import subprocess
import sys
from fractions import Fraction

import pytest

from gtbasis import (FACTORIAL, PLAIN, SingularityError, embedding_f_value, embedding_x_value,
                     gf_harm_closed, gf_harm_closed_m3, gf_harm_partial_sum, gf_mon_closed,
                     gf_mon_closed_m3, gf_mon_partial_sum, gf_value)

# x_1 * h_2 = +/-5e307 in either sign of h_2: exp of it overflows
OVERFLOWING = [([0.5, 0.0, 0.0], [1e308, 0.1]), ([-0.5, 0.0, 0.0], [-1e308, 0.1])]


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gtbasis", *args],
                          capture_output=True, text=True)


def _evaluators():
    for sign in (+1, -1):
        yield lambda x, h, s=sign: gf_harm_closed(3, x, h, s)
        yield lambda x, h, s=sign: gf_harm_closed(2, x[:2], h[:1], s)
        yield lambda x, h, s=sign: gf_harm_closed_m3(x, h, s)
    yield lambda x, h: gf_mon_closed(3, x, h)
    yield lambda x, h: gf_mon_closed(2, x[:2], h[:1])
    yield lambda x, h: gf_mon_closed_m3(x, h)


@pytest.mark.parametrize("x, h", OVERFLOWING)
def test_closed_forms_map_overflow_to_value_error(x, h):
    for evaluate in _evaluators():
        with pytest.raises(ValueError, match="overflows the float range") as info:
            evaluate(x, h)
        assert isinstance(info.value.__cause__, OverflowError)


def test_mon_m3_formula_reports_a_singular_kernel():
    with pytest.raises(SingularityError):
        gf_mon_closed_m3([0.0, 0.0, 1.0], [0.0, 1.0], unsafe_domain=True)


@pytest.mark.parametrize("kind", ["harm", "mon"])
@pytest.mark.parametrize("x, h", OVERFLOWING)
def test_cli_overflow_exits_2(kind, x, h):
    proc = run_cli("genfun", "eval", "--kind", kind, "--m", "3",
                   "--x=" + ",".join(map(str, x)), "--h=" + ",".join(map(str, h)))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "overflows the float range" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- non-finite values under unsafe_domain ---------------------------------------

# |x|^2 overflows: the kernel is NaN (h_3 = 0) or +inf (h_3 != 0)
HUGE_X = [([1e200, 0.0, 0.0], [0.1, 0.0]), ([1e200, 0.0, 0.0], [0.1, 0.1])]


def _closed_forms_m3():
    for norm in (FACTORIAL, PLAIN):
        for sign in (+1, -1):
            yield lambda x, h, s=sign, n=norm: gf_harm_closed(3, x, h, s, n, unsafe_domain=True)
            yield lambda x, h, s=sign, n=norm: gf_harm_closed_m3(x, h, s, n, unsafe_domain=True)
        yield lambda x, h, n=norm: gf_mon_closed(3, x, h, n, unsafe_domain=True)
        yield lambda x, h, n=norm: gf_mon_closed_m3(x, h, n, unsafe_domain=True)


@pytest.mark.parametrize("x, h", HUGE_X)
def test_non_finite_kernel_is_an_overflow_error(x, h):
    for evaluate in _closed_forms_m3():
        with pytest.raises(ValueError, match="overflows the float range"):
            evaluate(x, h)


@pytest.mark.parametrize("m", [2, 4, 5])
def test_non_finite_kernel_in_every_dimension(m):
    x = [1e200] + [0.0] * (m - 1)
    h = [0.1] * (m - 1)
    for norm in (FACTORIAL, PLAIN):
        with pytest.raises(ValueError, match="overflows the float range"):
            gf_harm_closed(m, x, h, +1, norm, unsafe_domain=True)
        with pytest.raises(ValueError, match="overflows the float range"):
            gf_mon_closed(m, x, h, norm, unsafe_domain=True)


def test_infinite_exponent_is_an_overflow_error():
    # |x|^2 is finite and d_3 = 1, but x_1 * h_2 is +inf, so exp gives inf with no OverflowError
    x, h = [1e154, 0.0, 0.0], [1e200, 0.0]
    for evaluate in _closed_forms_m3():
        with pytest.raises(ValueError, match="overflows the float range"):
            evaluate(x, h)


@pytest.mark.parametrize("kind", ["harm", "mon"])
@pytest.mark.parametrize("x, h", HUGE_X)
def test_cli_non_finite_kernel_exits_2(kind, x, h):
    proc = run_cli("genfun", "eval", "--kind", kind, "--m", "3", "--format", "json",
                   "--x=" + ",".join(map(str, x)), "--h=" + ",".join(map(str, h)),
                   "--unsafe-domain")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "overflows the float range" in proc.stderr
    assert "Traceback" not in proc.stderr


# -- an infinite phase x_2 * h_2 under unsafe_domain ---------------------------------

# |x|^2 and every kernel are finite, but x_2 * h_2 = +inf: cos, sin and the
# complex exp of that phase have no value
INFINITE_PHASE = {2: ([0.0, 1e154], [1e200]), 3: ([0.0, 1e154, 0.0], [1e200, 0.0])}


def _closed_forms(m):
    for norm in (FACTORIAL, PLAIN):
        for sign in (+1, -1):
            yield lambda x, h, s=sign, n=norm: gf_harm_closed(m, x, h, s, n, unsafe_domain=True)
        yield lambda x, h, n=norm: gf_mon_closed(m, x, h, n, unsafe_domain=True)
        if m == 3:
            for sign in (+1, -1):
                yield lambda x, h, s=sign, n=norm: gf_harm_closed_m3(x, h, s, n,
                                                                     unsafe_domain=True)
            yield lambda x, h, n=norm: gf_mon_closed_m3(x, h, n, unsafe_domain=True)


@pytest.mark.parametrize("m", [2, 3])
def test_infinite_phase_is_an_overflow_error(m):
    x, h = INFINITE_PHASE[m]
    for evaluate in _closed_forms(m):
        with pytest.raises(ValueError, match="overflows the float range") as info:
            evaluate(x, h)
        assert not isinstance(info.value, SingularityError)


@pytest.mark.parametrize("m", [2, 3])
def test_infinite_phase_with_vanishing_magnitude_is_zero(m):
    # x_1 * h_2 = -inf, so e^{x_1 h_2} = 0 whatever the phase: the value is 0
    x, h = [-1e153, 1e153, 0.0][:m], [1e200, 0.0][:m - 1]
    assert gf_harm_closed(m, x, h, +1, FACTORIAL, unsafe_domain=True) == 0
    assert gf_mon_closed(m, x, h, FACTORIAL, unsafe_domain=True).is_zero()
    if m == 3:
        assert gf_mon_closed_m3(x, h, FACTORIAL, unsafe_domain=True).is_zero()


@pytest.mark.parametrize("sign", [+1, -1])
def test_m3_harmonic_formula_with_vanishing_magnitude_is_zero(sign):
    # x_1 h_2 / d = -inf: the exponent is formed part by part, so its phase
    # +/-inf stays a phase instead of becoming NaN in a complex division by d
    x, h = [-1e153, 1e153, 0.0], [1e200, 0.0]
    assert gf_harm_closed_m3(x, h, sign, FACTORIAL, unsafe_domain=True) == 0
    assert gf_harm_closed(3, x, h, sign, FACTORIAL, unsafe_domain=True) == 0


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("kind", ["harm", "mon"])
@pytest.mark.parametrize("m", [2, 3])
def test_cli_infinite_phase_exits_2(m, kind, norm):
    x, h = INFINITE_PHASE[m]
    proc = run_cli("genfun", "eval", "--kind", kind, "--m", str(m), "--norm", norm,
                   "--x=" + ",".join(map(str, x)), "--h=" + ",".join(map(str, h)),
                   "--unsafe-domain")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the generating-function value overflows the float range\n"


def test_cli_infinite_phase_of_the_reported_call_exits_2():
    for kind in ("harm", "mon"):
        proc = run_cli("genfun", "eval", "--kind", kind, "--m", "2", "--x=0,1e200",
                       "--h=1e200", "--unsafe-domain")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "overflows the float range" in proc.stderr


# -- the partial sums follow the same rule -------------------------------------------


@pytest.mark.parametrize("evaluate, args", [
    # h_2^2 = 1e600: the power itself raises OverflowError
    (gf_mon_partial_sum, (2, [0.5, 0.5], [1e300], 3)),
    (gf_harm_partial_sum, (3, [0.5, 0.5, 0.0], [1e300, 0.1], 2)),
])
def test_partial_sum_power_overflow_is_an_overflow_error(evaluate, args):
    with pytest.raises(ValueError, match="overflows the float range") as info:
        evaluate(*args)
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.parametrize("evaluate, args", [
    # the k_2 = 2 term (1e308 + 1e-300 i)^2 / 2 * h_2^2 comes out as inf + NaN i
    (gf_harm_partial_sum, (2, [1e308, 1e-300], [-0.84], 2)),
    # the k_3 = 1 term of the scalar part, 2 * x_3 * h_3 = 1.8e308, is +inf
    (gf_mon_partial_sum, (3, [0.9, 0.1, 0.9], [0.1, 1e308], 1)),
    # x_1 * x_1 = inf in |x|_3^2 of the dimension-3 F table
    (gf_harm_partial_sum, (3, [1e200, 0.0, 0.0], [0.1, 0.1], 1)),
])
def test_non_finite_partial_sum_is_an_overflow_error(evaluate, args):
    with pytest.raises(ValueError, match="overflows the float range"):
        evaluate(*args)


# -- the embedding-factor evaluators -------------------------------------------------


@pytest.mark.parametrize("evaluate, args", [
    # |x|_3^2 = 2e200 is finite, but the recurrence meets inf - inf: the value was NaN
    (embedding_f_value, (3, 0, 30, [1e100, 0.0, 1e100])),
    (embedding_f_value, (3, 0, 3, [0.0, 0.0, 1e120])),
    # F^(2)_{3,1} * x_1 is -inf on the e13 blade
    (embedding_x_value, (3, 3, 0, 3, [1e120, 0.0, 1e60])),
])
def test_non_finite_embedding_factor_is_an_overflow_error(evaluate, args):
    with pytest.raises(ValueError, match="overflows the float range"):
        evaluate(*args)


# -- the Gegenbauer generating function ----------------------------------------------


@pytest.mark.parametrize("nu, t, h", [
    # the kernel is 2e-15 > 0, and its power -100 is beyond the float range
    (100, 1 - 1e-15, 1 - 1e-15),
    # 2*t*h and h^2 are both inf: the kernel is inf - inf
    (1, 1e200, 1e200),
])
def test_gegenbauer_gf_value_overflow_is_an_overflow_error(nu, t, h):
    with pytest.raises(ValueError, match="overflows the float range"):
        gf_value(nu, t, h)


def test_gegenbauer_gf_value_keeps_finite_values():
    assert gf_value(Fraction(1, 2), 0.3, 0.4) == (1.0 - 2.0 * 0.3 * 0.4 + 0.4 * 0.4) ** -0.5
    # an infinite kernel has a power that underflows to zero
    assert gf_value(1, 0.0, 1e200) == 0.0


# -- an int coordinate beyond the float range ----------------------------------------


# float(10**400) raises OverflowError before any value is computed: the input, not a
# value, left the float range, so the ValueError (CLI exit 2) names the argument
_HUGE = 10 ** 400
_FLOAT_ENTRY_POINTS = {
    "gf_harm_closed": (lambda x, h: gf_harm_closed(3, x, h), True),
    "gf_harm_closed_m3": (lambda x, h: gf_harm_closed_m3(x, h), True),
    "gf_mon_closed": (lambda x, h: gf_mon_closed(3, x, h), True),
    "gf_mon_closed_m3": (lambda x, h: gf_mon_closed_m3(x, h), True),
    "gf_harm_partial_sum": (lambda x, h: gf_harm_partial_sum(3, x, h, 3), True),
    "gf_mon_partial_sum": (lambda x, h: gf_mon_partial_sum(3, x, h, 3), True),
    "embedding_f_value": (lambda x, h: embedding_f_value(3, 0, 2, x), False),
    "embedding_x_value": (lambda x, h: embedding_x_value(3, 3, 0, 2, x), False),
    "gf_value": (lambda x, h: gf_value(1, x[0], h[0]), True),
}


@pytest.mark.parametrize("name, where", [
    (name, where) for name, (_, reads_h) in _FLOAT_ENTRY_POINTS.items()
    for where in (("x", "h") if reads_h else ("x",))])
def test_an_int_beyond_the_float_range_is_a_value_error(name, where):
    x, h = [0.1, 0.2, 0.3], [0.1, 0.05]
    (x if where == "x" else h)[0] = _HUGE
    evaluate, _ = _FLOAT_ENTRY_POINTS[name]
    # the message names the argument: gf_value reads x[0] as t
    named = {"x": "t", "h": "h"}[where] if name == "gf_value" else f"a coordinate of {where}"
    with pytest.raises(ValueError, match=f"^{named} is beyond the float range$") as info:
        evaluate(x, h)
    assert isinstance(info.value.__cause__, OverflowError)
