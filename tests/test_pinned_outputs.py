"""Pinned digests of the exact outputs: bases, series and Gram entries.

Each library digest is the sha256 of the canonical JSON (sorted keys, no
spaces) of every object in the group, one object per line.  Each CLI digest
is the sha256 of the stdout bytes of one `gtbasis basis` or `gtbasis genfun
series` call.  A refactor of the exact paths must reproduce these bytes, not
only equal values.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from gtbasis import (FACTORIAL, PLAIN, enumerate_harm_indices, enumerate_mon_indices,
                     gf_harm_series, gf_mon_series, harm_basis, inner_harm, inner_mon,
                     mon_basis)
from gtbasis.cli import main

PINNED = {
    ("harm_basis", FACTORIAL): "f9816e7a7bf880545f8c01222b41924a8f974a51326cf9f09105b1ba5741a797",
    ("harm_basis", PLAIN): "788808e05b972db4f2c69aa045effd153b627cc533840c8483b8cc08db4bb037",
    ("mon_basis", FACTORIAL): "46b4590385e184da42d04b6a26b180a380f550ffcb2d0c7dcf03d36a893589c4",
    ("mon_basis", PLAIN): "0acc9c01a7ff8b93a3276be7d9e78a57d7d5c10e23568372bc37c74a8b74e788",
    ("harm_series", +1, FACTORIAL): "98de931f554f7e59adc6a5ccf11394646b4fd4045e9ec87a22e2b0154416e14d",
    ("harm_series", -1, FACTORIAL): "e264fde177854644675e7bbc17c1238fb0b72f581a5ef19ff6c2bb24d0675e95",
    ("harm_series", +1, PLAIN): "5fddf15eda2b2ff940f692be1a92eeb4c318e01bb5821e70696ea25174abd3ed",
    ("harm_series", -1, PLAIN): "c2ba8e5c73aafb1e42d25ef97f281f3c8f9b4d4b028fcbe497c4517d6c803af5",
    ("mon_series", FACTORIAL): "2f75ca7987dbbdb4307631e92226f0e3bd1e641b214235ce10b5bd749a0e5bd5",
    ("mon_series", PLAIN): "6c7ad2e84a8e30b33ba8a0769aec2adcb4488035d97b723b283df168a649f826",
    ("gram_harm",): "a4cd1b211331fba8d71b506c3d44cb0c2365f65f8bced54248dfa1536995d3a4",
    ("gram_mon",): "2ac6c32c4c34f2f31f8bd0e5f59c6d38d42f20f84ceac696ded33fe95289071f",
}


def _digest(objects) -> str:
    h = hashlib.sha256()
    for obj in objects:
        h.update(json.dumps(obj.to_json(), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _upper_gram(inner, polys):
    return [inner(a, b) for i, a in enumerate(polys) for b in polys[i:]]


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_harm_basis_digest(norm):
    polys = (harm_basis(idx) for idx in enumerate_harm_indices(4, 4, norm))
    assert _digest(polys) == PINNED[("harm_basis", norm)]


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_mon_basis_digest(norm):
    polys = (mon_basis(idx) for idx in enumerate_mon_indices(4, 3, norm))
    assert _digest(polys) == PINNED[("mon_basis", norm)]


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("sign", [+1, -1])
def test_harm_series_digest(sign, norm):
    assert _digest([gf_harm_series(4, 3, sign, norm)]) == PINNED[("harm_series", sign, norm)]


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_mon_series_digest(norm):
    assert _digest([gf_mon_series(4, 3, norm)]) == PINNED[("mon_series", norm)]


def test_gram_harm_digest():
    polys = [harm_basis(idx) for idx in enumerate_harm_indices(3, 3)]
    assert _digest(_upper_gram(inner_harm, polys)) == PINNED[("gram_harm",)]


def test_gram_mon_digest():
    polys = [mon_basis(idx) for idx in enumerate_mon_indices(3, 2)]
    assert _digest(_upper_gram(inner_mon, polys)) == PINNED[("gram_mon",)]


def cli_stdout_sha256(*argv) -> str:
    """sha256 of the stdout bytes of `gtbasis ARGV...`, which must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


CLI_PINNED = {
    "series-mon-m4": (
        "genfun series --kind mon --m 4 --order 4",
        "6068463ac935ff57369568a8fd8d63cb85f4a8fc426c964454e65f73ee0d0226"),
    # three lifts on each ring from the plain base
    "series-harm-m5-plain": (
        "genfun series --kind harm --m 5 --order 4 --sign=- --norm plain",
        "8f4ec5344ffee0c7c103277de19dcfc66e59b5013144f4741f82c832c6e678bf"),
    "series-mon-m5-plain": (
        "genfun series --kind mon --m 5 --order 3 --norm plain",
        "dca264f18db8904f7f6189e13ad283e0eb48e77f0c315d4cb9cb2ee6ce29d7d9"),
    "basis-harm-m4": (
        "basis --kind harm --m 4 --k 1,2,1 --format json",
        "31810cb0c145365026c54736678b38cadf8189b2c4ad299f75f8856c4d41a0d5"),
    # high degrees: F^(100)_{3,0} and X^(30)_{4,1}
    "basis-harm-m3-k100": (
        "basis --kind harm --m 3 --k 0,100 --format json",
        "1304579c35369d22e2854f2d6b88e38dfc89160b1dcb60fd75dd6d7052766acc"),
    "basis-mon-m4-k30": (
        "basis --kind mon --m 4 --k 1,0,30 --format json",
        "fc60fef408237da72346a3313af503d8188550321014470cec54b40a26e9c897"),
}


@pytest.mark.parametrize("command, digest", CLI_PINNED.values(), ids=CLI_PINNED.keys())
def test_cli_json_output_is_pinned(command, digest):
    assert cli_stdout_sha256(*command.split()) == digest
