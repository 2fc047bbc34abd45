"""The error contract of `genfun eval`, called in-process through `cli.main`.

Every call either exits 0 with a finite value on stdout, or exits 2 (invalid
input or a value beyond the float range), 3 (outside the certified domain) or
4 (singular kernel) with nothing on stdout.  It never raises, so no call ends
in a traceback.  Points come from the whole float range, as in the library
contract of test_float_error_contract.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtbasis import FACTORIAL, PLAIN
from gtbasis.cli import main
from test_float_error_contract import CONTRACT_SETTINGS, coordinates


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _eval_argv(kind, m, x, h, norm, fmt, unsafe):
    argv = ["genfun", "eval", "--kind", kind, "--m", str(m),
            "--x=" + ",".join(map(repr, x)), "--h=" + ",".join(map(repr, h)),
            "--norm", norm, "--format", fmt]
    return argv + ["--unsafe-domain"] if unsafe else argv


def _output_is_finite(stdout, kind, fmt) -> bool:
    if fmt == "text":
        return "nan" not in stdout and "inf" not in stdout
    data = json.loads(stdout)
    values = [data["re"], data["im"]] if kind == "harm" else [t["value"] for t in data["terms"]]
    return all(map(math.isfinite, values))


@st.composite
def eval_calls(draw):
    m = draw(st.integers(2, 5))
    return (draw(st.sampled_from(["harm", "mon"])), m,
            draw(st.lists(coordinates, min_size=m, max_size=m)),
            draw(st.lists(coordinates, min_size=m - 1, max_size=m - 1)),
            draw(st.sampled_from([FACTORIAL, PLAIN])),
            draw(st.sampled_from(["text", "json"])), draw(st.booleans()))


@CONTRACT_SETTINGS
@given(eval_calls())
def test_genfun_eval_exits_with_a_documented_code(call):
    code, stdout, stderr = _run(_eval_argv(*call))
    if code == 0:
        assert _output_is_finite(stdout, call[0], call[5]), f"{call} -> {stdout!r}"
    else:
        assert code in (2, 3, 4), f"{call} -> exit {code}"
        assert stdout == "" and stderr, f"{call} -> {stdout!r}"


# d_m = 1 - 2*x_m*h_m + h_m^2*|x|^2 = 0 at x = e_m, h_m = 1; at m = 2 the plain
# base denominator 1 - 2*x_1*h_2 + h_2^2*|x|^2 vanishes at x = e_1, h_2 = 1
SINGULAR = [
    (2, [1.0, 0.0], [1.0], PLAIN),
    (3, [0.0, 0.0, 1.0], [0.0, 1.0], FACTORIAL),
    (3, [0.0, 0.0, 1.0], [0.0, 1.0], PLAIN),
    (4, [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0], FACTORIAL),
    (5, [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], PLAIN),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind", ["harm", "mon"])
@pytest.mark.parametrize("m, x, h, norm", SINGULAR)
def test_singular_kernel_exits_4(m, x, h, norm, kind, fmt):
    code, stdout, stderr = _run(_eval_argv(kind, m, x, h, norm, fmt, unsafe=True))
    assert code == 4
    assert stdout == ""
    assert stderr.startswith("singularity: ")


# cli.main maps every ValueError to exit 2, one path per command
@pytest.mark.parametrize("argv", [
    ["basis", "--kind", "harm", "--m", "3", "--k", "1,2,3"],
    ["genfun", "series", "--kind", "mon", "--m", "3", "--order", "-1"],
    ["genfun", "eval", "--kind", "harm", "--m", "3", "--x=nan,0,0", "--h=0.1,0.1"],
    ["verify", "--m-max", "1"],
])
def test_value_error_exits_2_for_every_command(argv):
    code, stdout, stderr = _run(argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ")


# the dimension is checked before the length of --k, as in genfun series
@pytest.mark.parametrize("kind", ["harm", "mon"])
@pytest.mark.parametrize("m", ["1", "0", "-3"])
def test_basis_below_dimension_two_exits_2(kind, m):
    code, stdout, stderr = _run(["basis", "--kind", kind, "--m", m, "--k", "1"])
    assert (code, stdout) == (2, "")
    assert stderr == f"error: dimension must be at least 2, got {m}\n"
    assert _run(["genfun", "series", "--kind", kind, "--m", m, "--order", "1"])[2] == stderr
