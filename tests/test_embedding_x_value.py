"""embedding_x_value, the float twin of embedding_X, against the exact factor at float points."""

import random

import pytest

from gtbasis import embedding_X, embedding_x_value


def _points(m: int, count: int = 4) -> list:
    rng = random.Random(f"embedding-x-value:{m}")
    points = []
    while len(points) < count:
        x = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        if sum(v * v for v in x) <= 1.0:
            points.append(x)
    return points


@pytest.mark.parametrize("m", [3, 4, 5])
def test_embedding_x_value_matches_exact_factor(m):
    for x in _points(m):
        for j in range(4):
            for k in range(7):
                exact = embedding_X(m, j, k).eval(x)
                value = embedding_x_value(m, m + 1, j, k, x)
                assert value.dim == m + 1
                scale = max((abs(c) for c in exact.terms.values()), default=0.0)
                for blade in set(exact.terms) | set(value.terms):
                    gap = abs(value.coeff(blade) - exact.coeff(blade))
                    assert gap <= 1e-12 * scale, (m, j, k, x, blade)
