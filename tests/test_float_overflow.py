"""A closed-form value beyond the float range is a ValueError (CLI exit 2).

Before, `math.exp` and `cmath.exp` raised an uncaught OverflowError, whose
traceback exits 1: the code `verify` uses for failed checks.
"""

import subprocess
import sys

import pytest

from gtbasis import (SingularityError, gf_harm_closed, gf_harm_closed_m3, gf_mon_closed,
                     gf_mon_closed_m3)

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
