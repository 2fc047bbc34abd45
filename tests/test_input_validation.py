"""Invalid inputs are refused with a ValueError (CLI exit 2), never evaluated."""

import math
import subprocess
import sys

import pytest

from gtbasis import (DomainError, gf_harm_closed, gf_harm_closed_m3, gf_mon_closed,
                     gf_mon_closed_m3)
from gtbasis.verify import run_verify

NON_FINITE = (math.nan, math.inf, -math.inf)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gtbasis", *args],
                          capture_output=True, text=True)


def _evaluators():
    yield lambda x, h, unsafe: gf_harm_closed(3, x, h, unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_harm_closed(3, x, h, -1, "plain", unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_harm_closed_m3(x, h, unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_mon_closed(3, x, h, unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_mon_closed_m3(x, h, "plain", unsafe_domain=unsafe)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("unsafe", [False, True])
@pytest.mark.parametrize("where", ["x", "h2", "h3"])
def test_closed_forms_reject_non_finite_points(bad, unsafe, where):
    x, h = [0.1, 0.2, 0.3], [0.1, 0.1]
    if where == "x":
        x[1] = bad
    else:
        h[int(where[1]) - 2] = bad
    for evaluate in _evaluators():
        with pytest.raises(ValueError, match="finite") as info:
            evaluate(x, h, unsafe)
        assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize("args", [
    ("--kind", "harm", "--m", "3", "--x", "nan,0,0", "--h", "0,0.1"),
    ("--kind", "harm", "--m", "3", "--x", "0,0,0", "--h", "inf,0.1"),
    ("--kind", "mon", "--m", "3", "--x", "0,0,0", "--h", "0,-inf", "--unsafe-domain"),
])
def test_cli_genfun_eval_non_finite_exits_2(args):
    proc = run_cli("genfun", "eval", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "finite" in proc.stderr


@pytest.mark.parametrize("kwargs, name", [
    ({"m_max": 1}, "m_max"),
    ({"m_max": -3}, "m_max"),
    ({"deg_max": -1}, "deg_max"),
    ({"order": -1}, "order"),
])
def test_run_verify_rejects_out_of_range_parameters(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_verify(("pde",), **kwargs)


def test_run_verify_accepts_smallest_parameters():
    report, _ = run_verify(("pde", "extract"), m_max=2, deg_max=0, order=0)
    assert report["overall"] == "pass"


@pytest.mark.parametrize("flags, name", [
    (("--m-max", "1"), "m_max"),
    (("--deg-max", "-1"), "deg_max"),
    (("--order", "-1"), "order"),
])
def test_cli_verify_out_of_range_parameters_exit_2(flags, name):
    proc = run_cli("verify", "--suite", "pde", *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert name in proc.stderr
