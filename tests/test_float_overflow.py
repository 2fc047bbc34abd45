"""A closed-form value beyond the float range is a ValueError (CLI exit 2).

Before, `math.exp` and `cmath.exp` raised an uncaught OverflowError, whose
traceback exits 1: the code `verify` uses for failed checks.  Under
unsafe_domain a kernel, denominator or value that is inf or NaN is the same
ValueError; it used to come back as NaN, inf or a silent 0.
"""

import subprocess
import sys

import pytest

from gtbasis import (FACTORIAL, PLAIN, SingularityError, gf_harm_closed, gf_harm_closed_m3,
                     gf_mon_closed, gf_mon_closed_m3)

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
