"""The pure-Python check stream draws exactly what numpy's seeded PCG64 draws."""

import hashlib
import random

import numpy as np
import pytest

from gtbasis._pcg import PCG64

# Ranges verify draws from, plus widths whose Lemire rejection threshold is
# large (2**31 + 1) or zero (powers of two, 2**32), and width 1, which draws nothing.
INT_RANGES = [(2, 6), (-9, 10), (1, 10), (0, 1), (0, 2), (0, 6), (0, 32),
              (-3, 2 ** 31 - 2), (5, 2 ** 32 + 5), (0, 2 ** 31 + 1)]


def _key(seed: int, i: int) -> list:
    """[seed] + 4 big-endian words of a sha256 digest, the shape verify uses."""
    digest = hashlib.sha256(f"check {i}".encode()).digest()
    return [seed] + [int.from_bytes(digest[j:j + 8], "big") for j in range(0, 32, 8)]


def _numpy_stream(key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _draw(gen, op):
    kind, a, b, size = op
    if kind == "uniform":
        value = gen.uniform(a, b) if size is None else gen.uniform(a, b, size=size)
        return [float(v) for v in np.atleast_1d(value)]
    return [int(gen.integers(a, b))]


def test_stream_matches_numpy_over_many_keys():
    plan = random.Random(20240607)
    seeds = [0, 0, 0, 1, 3, 777, 2 ** 31 - 1, 2 ** 40 + 7]
    for i in range(1200):
        key = _key(seeds[i % len(seeds)], i)
        ops = []
        for _ in range(30):
            pick = plan.random()
            if pick < 0.3:
                ops.append(("uniform", -1.0, 1.0, None))
            elif pick < 0.5:
                ops.append(("uniform", -0.25, 0.5, plan.randint(1, 5)))
            else:
                ops.append(("integers", *plan.choice(INT_RANGES), None))
        ours, theirs = PCG64(key), _numpy_stream(key)
        for op in ops:
            assert _draw(ours, op) == _draw(theirs, op), (key, op)


def test_small_entropy_words_match_numpy():
    # Words below 2**32 take one 32-bit entry in the pool, zero included.
    for key in ([0], [0, 0, 0, 0, 0], [5, 1, 2 ** 32, 2 ** 64 - 1, 0], list(range(9))):
        ours, theirs = PCG64(key), _numpy_stream(key)
        for _ in range(20):
            assert ours.integers(-9, 10) == theirs.integers(-9, 10)
            assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)


def test_out_of_range_requests_raise():
    with pytest.raises(ValueError):
        PCG64([-1])
    stream = PCG64([0])
    with pytest.raises(ValueError):
        stream.integers(3, 3)
    with pytest.raises(ValueError):
        stream.integers(0, 2 ** 32 + 1)
