"""The immutable value types copy, deep-copy and pickle to equal values.

Each copy keeps the public slots only: a polynomial's ball-pairing index is a
cache, and a copy builds its own on its first pairing.
"""

import copy
import pickle

import pytest

from gtbasis import (CLIFFORD, GaussianRational, MPoly, Multivector, PiScaled, gf_mon_series,
                     inner_harm)

X1, X2 = MPoly.variable(3, 1), MPoly.variable(3, 2)
PAIRED = X1 * X1 + X2 * X2.scale(GaussianRational(1, 2))
inner_harm(PAIRED, PAIRED)

VALUES = {
    "mpoly-paired": PAIRED,
    "mpoly-clifford": MPoly.variable(3, 3, CLIFFORD) * MPoly.constant(
        3, Multivector(3, {0b101: 2}), CLIFFORD),
    "piscaled": PiScaled(GaussianRational(1, 3), 5),
    "multivector-float": Multivector(3, {0: 1.5, 0b110: -2.0}),
    "multivector-exact": Multivector(3, {0b11: 7}),
    "hseries": gf_mon_series(3, 2),
    "gaussian-rational": GaussianRational(2, -5),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("make_copy", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_copies_equal_the_value(value, make_copy):
    other = make_copy(value)
    assert type(other) is type(value)
    assert other == value and hash(other) == hash(value)
    if hasattr(value, "to_json"):
        assert other.to_json() == value.to_json()
    with pytest.raises(AttributeError, match="is immutable"):
        other.x = 1


@pytest.mark.parametrize("make_copy", COPIES.values(), ids=COPIES.keys())
def test_a_paired_polynomial_copies_without_its_index(make_copy):
    assert hasattr(PAIRED, "_parity_classes")
    other = make_copy(PAIRED)
    assert not hasattr(other, "_parity_classes")
    assert inner_harm(other, PAIRED) == inner_harm(PAIRED, PAIRED)
