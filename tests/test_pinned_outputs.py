"""Pinned digests of the exact outputs: bases, series and Gram entries.

Each digest is the sha256 of the canonical JSON (sorted keys, no spaces) of
every object in the group, one object per line.  A refactor of the exact
paths must reproduce these bytes, not only equal values.
"""

import hashlib
import json

import pytest

from gtbasis import (FACTORIAL, PLAIN, enumerate_harm_indices, enumerate_mon_indices,
                     gf_harm_series, gf_mon_series, harm_basis, inner_harm, inner_mon,
                     mon_basis)

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
