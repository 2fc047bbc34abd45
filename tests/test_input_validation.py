"""Invalid inputs are refused with a ValueError (CLI exit 2), never evaluated."""

import math
import subprocess
import sys

import pytest

from gtbasis import (DomainError, embedding_f_value, embedding_x_value, enumerate_harm_indices,
                     enumerate_mon_indices, gf_harm_closed, gf_harm_closed_m3, gf_mon_closed,
                     gf_mon_closed_m3, gf_value, iter_multi_indices)
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


@pytest.mark.parametrize("nu, t, h", [
    (1, math.nan, 0.5),
    (1, 0.5, math.inf),
    (1, -math.inf, 0.5),
    (-1, 0.5, 0.5),
    (0, 0.5, 0.5),
    (math.inf, 0.5, 0.5),
])
def test_gegenbauer_gf_value_rejects_invalid_arguments(nu, t, h):
    with pytest.raises(ValueError, match="nu must be|must be finite"):
        gf_value(nu, t, h)


@pytest.mark.parametrize("enumerate_, args", [
    (lambda *a: list(iter_multi_indices(*a)), (-1, 2)),
    (enumerate_harm_indices, (0, 2)),
    (enumerate_mon_indices, (0, 2)),
])
def test_negative_parts_are_refused(enumerate_, args):
    with pytest.raises(ValueError, match="parts must be non-negative"):
        enumerate_(*args)


@pytest.mark.parametrize("evaluate, args", [
    (embedding_f_value, (3, 0, 2, [0.1, 0.2])),
    (embedding_f_value, (4, 1, -1, [0.1, 0.2, 0.3])),
    (embedding_x_value, (3, 3, 0, 2, [0.1, 0.2])),
])
def test_embedding_values_need_m_coordinates(evaluate, args):
    with pytest.raises(ValueError, match="coordinates"):
        evaluate(*args)
