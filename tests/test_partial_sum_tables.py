"""The tabulated float partial sums against the per-term algorithm they replace.

The partial sums read every embedding-factor value from one table of
diagonals per dimension and split each Clifford factor as a + b*U_r.  The
references here spell out the plain sum over every multi-index k with
|k| <= order, one `embedding_f_value` or `embedding_x_value` call per factor,
as the sums were computed before the tables.

The monogenic sum and closed form keep their value at dimension r in the even
blades of R_{0,r}.  They must give the bits of the full-width loops they
replaced, copied below: every level a dense list of all 2^m (or 2^r) blades,
U_r applied to all of them.  Those loops also check that every odd blade
stays exactly 0, the invariant the even-blade lists rest on.  The harmonic
sum must likewise give the bits of the list-at-a-time loop copied below, with
each F row reading x_r and |x|_r^2 afresh.  Last, a digest pins the order-30
sums of both families as they were computed before the even-blade tables, and
another a seeded sample of closed forms and order-6 sums.
"""

import hashlib
import math
import random

import pytest

from gtbasis import (FACTORIAL, PLAIN, DomainBox, Multivector, embedding_f_value,
                     embedding_x_value, gf_harm_closed, gf_harm_partial_sum, gf_mon_closed,
                     gf_mon_closed_m3, gf_mon_partial_sum, iter_multi_indices)
from gtbasis.clifford import blade_product
from gtbasis.harmonics import _base2_value, _closed_form, _descend, _f_diagonals
from gtbasis.verify import GF_TOL

E12 = 0b11

POINTS = {
    3: (0.5, -0.25, 0.75),
    4: (0.375, 0.5, -0.125, 0.625),
    5: (-0.25, 0.125, 0.5, 0.375, -0.5),
}
H = {
    3: (0.4, -0.3),
    4: (0.3, 0.1, -0.2),
    5: (-0.2, 0.02, -0.06, 0.25),
}


def _h_power(h, k) -> float:
    out = 1.0
    for hr, kr in zip(h, k):
        out *= hr ** kr
    return out


def _reference_harm(m, x, h, order, sign, norm) -> complex:
    total = complex(0.0)
    for k in iter_multi_indices(m - 1, order):
        term = complex(x[0], sign * x[1]) ** k[0]
        if norm == FACTORIAL:
            term /= math.factorial(k[0])
        j = k[0]
        for r in range(3, m + 1):
            term *= embedding_f_value(r, j, k[r - 2], x)
            j += k[r - 2]
        total += term * _h_power(h, k)
    return total


def _reference_mon(m, x, h, order, norm) -> Multivector:
    base = Multivector(m, {0: x[0], E12: -x[1]})
    total = Multivector.zero(m)
    for k in iter_multi_indices(m - 1, order):
        term = Multivector.scalar(m, 1.0)
        for _ in range(k[0]):
            term = term * base
        if norm == FACTORIAL:
            term = term.scale(1.0 / math.factorial(k[0]))
        j = k[0]
        for r in range(3, m + 1):
            term = embedding_x_value(r, m, j, k[r - 2], x) * term
            j += k[r - 2]
        total = total + term.scale(_h_power(h, k))
    return total


def _component_gap(a: Multivector, b: Multivector) -> float:
    return max((abs(c) for c in (a - b).terms.values()), default=0.0)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_embedding_f_value_is_the_table_entry(m):
    x = POINTS[m]
    diagonals = _f_diagonals(m, 30, x)
    assert len(diagonals) == 31
    for s, diagonal in enumerate(diagonals):
        assert len(diagonal) == s + 1
        for k, value in enumerate(diagonal):
            assert embedding_f_value(m, s - k, k, x) == value


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_harm_partial_sum_matches_the_per_term_reference(m, norm):
    x, h = POINTS[m], H[m]
    for sign in (+1, -1):
        expected = _reference_harm(m, x, h, 12, sign, norm)
        assert abs(gf_harm_partial_sum(m, x, h, 12, sign, norm) - expected) <= 1e-12


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_mon_partial_sum_matches_the_per_term_reference(m, norm):
    x, h = POINTS[m], H[m]
    expected = _reference_mon(m, x, h, 12, norm)
    assert _component_gap(gf_mon_partial_sum(m, x, h, 12, norm), expected) <= 1e-12


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_mon_partial_sum_m5_order_30_matches_the_closed_form(norm):
    rng = random.Random(5)
    box = DomainBox(5)
    h2_bound = 0.5 if norm == FACTORIAL else 0.1
    for _ in range(5):
        while True:
            x = [rng.uniform(-1.0, 1.0) for _ in range(5)]
            if sum(v * v for v in x) <= 1.0:
                break
        h = [rng.uniform(-h2_bound, h2_bound)]
        h += [rng.uniform(-1.0, 1.0) * float(box.bound(r)) for r in range(3, 6)]
        closed = gf_mon_closed(5, x, h, norm)
        assert _component_gap(closed, gf_mon_partial_sum(5, x, h, 30, norm)) <= GF_TOL


# -- bit identity with the full-width loops ------------------------------------


def _is_odd(mask):
    return bin(mask).count("1") % 2 == 1


def _odd_blades_are_zero(dense):
    return all(c == 0.0 for mask, c in enumerate(dense) if _is_odd(mask))


def _value_table(r, order, x):
    """table[j][k] = F^(k)_{r,j}(x) for j + k <= order, one embedding_f_value call each."""
    return [[embedding_f_value(r, j, k, x) for k in range(order - j + 1)]
            for j in range(order + 1)]


def _full_width_u_columns(m, r, x):
    """For each i < r, the pairs (x_i * sign, source) of U_r = sum_{i<r} x_i e_i e_r
    over every target blade of R_{0,m}."""
    er = 1 << (r - 1)
    columns = []
    for i in range(1, r):
        u = (1 << (i - 1)) | er
        columns.append([(x[i - 1] * blade_product(u, t ^ u, m)[0], t ^ u)
                        for t in range(1 << m)])
    return columns


def full_width_mon_partial_sum(m, x, h, order, norm):
    powers = [complex(1.0)]
    for k2 in range(1, order + 1):
        nxt = powers[-1] * complex(x[0], -x[1])
        if norm == FACTORIAL:
            nxt = nxt * (1.0 / k2)
        powers.append(nxt)
    level = []
    for s, z in enumerate(powers):
        dense = [0.0] * (1 << m)
        dense[0], dense[E12] = z.real, z.imag
        level.append([c * h[0] ** s for c in dense])
    for r in range(3, m + 1):
        table = _value_table(r, order, x)
        hpow = [h[r - 2] ** kr for kr in range(order + 1)]
        first, *rest = _full_width_u_columns(m, r, x)
        products = []
        for v in level:
            u = [c * v[src] for c, src in first]
            for column in rest:
                u = [o + c * v[src] for o, (c, src) in zip(u, column)]
            products.append(u)
        nxt = []
        for s in range(order + 1):
            acc = [0.0] * (1 << m)
            for kr in range(s + 1):
                j = s - kr
                a = (r - 2 + kr + 2 * j) / (r - 2 + 2 * j) * table[j][kr]
                b = table[j + 1][kr - 1] if kr else 0.0
                hk = hpow[kr]
                if b:
                    acc = [t + (a * c + b * u) * hk
                           for t, c, u in zip(acc, level[j], products[j])]
                else:
                    acc = [t + a * c * hk for t, c in zip(acc, level[j])]
            nxt.append(acc)
        level = nxt
    total = [0.0] * (1 << m)
    for v in level:
        total = [t + c for t, c in zip(total, v)]
    assert _odd_blades_are_zero(total)
    return Multivector(m, dict(enumerate(total)))


def _dense_u_blades(r):
    """For each i < r, the pairs (sign, source) with e_i e_r * e_source = sign * e_target,
    for every target t + e_r, t < 2^(r-1)."""
    half = 1 << (r - 1)
    out = []
    for i in range(1, r):
        u = (1 << (i - 1)) | half
        out.append(tuple((blade_product(u, t ^ u, r)[0], t ^ u)
                         for t in range(half, 2 * half)))
    return out


def _dense_u_times(r, x, s, v):
    first, *rest = _dense_u_blades(r)
    c = x[0] * s
    out = [c * sign * v[src] for sign, src in first]
    for i, pairs in enumerate(rest, 1):
        c = x[i] * s
        out = [o + c * sign * v[src] for o, (sign, src) in zip(out, pairs)]
    return out


def dense_mon_closed(m, x, h, norm):
    """The closed form on dense lists of all 2^r blades of R_{0,r}."""
    x, levels, base = _closed_form(m, x, h, 0, -1, norm, False)
    value = [base.real, 0.0, 0.0, base.imag]
    for r, _, hr in reversed(levels):
        a = 1.0 - x[r - 1] * hr
        value = [a * t for t in value] + _dense_u_times(r, x, hr, value)
    assert all(map(math.isfinite, value))
    assert _odd_blades_are_zero(value)
    return Multivector(m, dict(enumerate(value)))


def _seeded_points(m, norm, count=4):
    rng = random.Random(f"full-width:{m}:{norm}")
    bounds = [float(b) for b in DomainBox(m).bounds()[1:]]
    points = []
    for n in range(count):
        while True:
            x = [rng.uniform(-1.0, 1.0) for _ in range(m)]
            if sum(v * v for v in x) <= 1.0:
                break
        if n % 4 == 0:
            x[rng.randrange(m)] = 0.0
        h = [rng.uniform(-0.5, 0.5)] + [rng.uniform(-1.0, 1.0) * b for b in bounds]
        points.append((x, h))
    return points


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mon_partial_sum_is_bit_identical_to_the_full_width_loop(m, norm):
    for x, h in _seeded_points(m, norm):
        for order in (0, 1, 5, 12, 30):
            value = gf_mon_partial_sum(m, x, h, order, norm)
            expected = full_width_mon_partial_sum(m, x, h, order, norm)
            assert value.dim == expected.dim == m
            assert value.terms == expected.terms


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mon_closed_is_bit_identical_to_the_full_width_loop(m, norm):
    for x, h in _seeded_points(m, norm, 40):
        value = gf_mon_closed(m, x, h, norm)
        expected = dense_mon_closed(m, x, h, norm)
        assert value.dim == expected.dim == m
        assert value.terms == expected.terms


def per_level_descend(x, h):
    """The d_r descent with |x|_r^2 summed afresh at each level r."""
    levels, h2 = [], h[0]
    for r in range(len(x), 2, -1):
        hr = h[r - 2]
        for _, above, _ in levels:
            hr /= above
        r2 = 0.0
        for v in x[:r]:
            r2 += v * v
        d = 1.0 - 2.0 * x[r - 1] * hr + hr * hr * r2
        levels.append((r, d, hr))
        h2 /= d
    return levels, h2


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_descend_is_bit_identical_to_the_per_level_sums(m):
    for x, h in _seeded_points(m, FACTORIAL, 40):
        assert repr(_descend(x, h)) == repr(per_level_descend(x, h))


def product_mon_closed_m3(x, h, norm):
    """The m = 3 formula as the sparse product of the prefactor and the scaled base."""
    (x1, x2, x3), (h2, h3) = x, h
    [(_, d, _)], _ = per_level_descend(x, h)
    prefactor = Multivector(3, {0: 1.0 - x3 * h3, 0b101: x1 * h3, 0b110: x2 * h3})
    base = _base2_value(x1, x2, h2 / d, -1, norm)
    return prefactor * Multivector(3, {0: base.real, E12: base.imag}).scale(d ** -1.5)


def _signed_zeros_points(count):
    """Seeded points of the m = 3 domain; about a third of the x and h entries are 0.0 or -0.0."""
    rng = random.Random("m3-product")

    def entry(bound):
        return rng.choice([0.0, -0.0, rng.uniform(-bound, bound)])
    points = []
    while len(points) < count:
        x = [entry(1.0) for _ in range(3)]
        if sum(v * v for v in x) <= 1.0:
            points.append((x, [entry(0.5), entry(0.5)]))
    return points


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_mon_closed_m3_is_bit_identical_to_the_sparse_product(norm):
    for x, h in _signed_zeros_points(400):
        value = gf_mon_closed_m3(x, h, norm)
        expected = product_mon_closed_m3(x, h, norm)
        assert value.dim == expected.dim == 3
        assert repr(value) == repr(expected)


def test_the_trusted_float_constructor_drops_zeros_and_keeps_nan_and_inf():
    pairs = [(0, 0.0), (0b11, -0.0), (0b101, 1.5), (0b110, -math.inf), (0b1001, math.nan)]
    value = Multivector._of_floats(4, pairs)
    assert value.dim == 4
    assert sorted(value.terms) == [0b101, 0b110, 0b1001]
    assert value.terms[0b101] == 1.5 and value.terms[0b110] == -math.inf
    assert math.isnan(value.terms[0b1001])
    assert repr(value) == repr(Multivector(4, dict(pairs)))


def _per_row_f_table(m, order, x):
    """table[j][k] = F^(k)_{m,j}(x), each row computing x_m and |x|_m^2 itself."""
    table = []
    for j in range(order + 1):
        nu = m / 2.0 + j - 1.0
        r2 = sum(float(x[i]) ** 2 for i in range(m))
        xm = float(x[m - 1])
        prev, cur = 0.0, 1.0
        row = [cur]
        for n in range(1, order - j + 1):
            prev, cur = cur, (2.0 * (n + nu - 1.0) * xm * cur
                              - (n + 2.0 * nu - 2.0) * r2 * prev) / n
            row.append(cur)
        table.append(row)
    return table


def list_at_a_time_harm_partial_sum(m, x, h, order, sign, norm):
    powers = [complex(1.0)]
    for k2 in range(1, order + 1):
        nxt = powers[-1] * complex(x[0], sign * x[1])
        if norm == FACTORIAL:
            nxt = nxt * (1.0 / k2)
        powers.append(nxt)
    level = [[z * h[0] ** s] for s, z in enumerate(powers)]
    for r in range(3, m + 1):
        table = _per_row_f_table(r, order, x)
        hpow = [h[r - 2] ** kr for kr in range(order + 1)]
        nxt = []
        for s in range(order + 1):
            lower = [0.0]
            for kr in range(s + 1):
                j = s - kr
                a, hk = table[j][kr], hpow[kr]
                lower = [t + a * c * hk for t, c in zip(lower, level[j])]
            nxt.append(lower)
        level = nxt
    total = [0.0]
    for v in level:
        total = [t + c for t, c in zip(total, v)]
    return total[0]


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_harm_partial_sum_is_bit_identical_to_the_list_at_a_time_loop(m, norm):
    for x, h in _seeded_points(m, norm):
        for order in (0, 1, 5, 12, 30):
            for sign in (+1, -1):
                value = gf_harm_partial_sum(m, x, h, order, sign, norm)
                expected = list_at_a_time_harm_partial_sum(m, x, h, order, sign, norm)
                assert repr(value) == repr(expected)


# sha256 of the repr of the order-30 sums below, computed before the sums moved
# to even blades and diagonal tables; the same on every Python version the
# package supports
ORDER_30_SHA256 = "ebdf4104ed710e188a6472114f822eb4e206a7e8100608338b78938bb9c0ec56"

# sha256 of the repr of a seeded sample of 1,500 closed forms and order-6 sums
FLOAT_SAMPLE_SHA256 = "0a7e3d57035bdf3f8ec36c41c6fca70f3bb8ca8fb5c75234135bb697a0f625f8"


def test_order_30_partial_sums_are_pinned():
    rng = random.Random(30)
    digest = hashlib.sha256()
    for m in range(2, 7):
        for norm in (FACTORIAL, PLAIN):
            for n in range(4):
                x = [rng.uniform(-1.0, 1.0) / m for _ in range(m)]
                if n == 0:
                    x[rng.randrange(m)] = 0.0
                h = [rng.uniform(-0.5, 0.5)] + [rng.uniform(-0.5, 0.5) / 4 ** (m - r)
                                                 for r in range(3, m + 1)]
                out = (gf_harm_partial_sum(m, x, h, 30, +1, norm),
                       gf_harm_partial_sum(m, x, h, 30, -1, norm),
                       gf_mon_partial_sum(m, x, h, 30, norm).terms)
                digest.update(repr(out).encode())
    assert digest.hexdigest() == ORDER_30_SHA256


def test_closed_forms_and_order_6_sums_are_pinned():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for i in range(1500):
        m = rng.randint(2, 5)
        x = [rng.uniform(-1.0, 1.0) / m for _ in range(m)]
        h = [rng.uniform(-1.0, 1.0)] + [rng.uniform(-0.5, 0.5) / 4 ** (m - r)
                                         for r in range(3, m + 1)]
        norm = rng.choice([FACTORIAL, PLAIN])
        if i % 2:
            sign = rng.choice([1, -1])
            out = (gf_harm_closed(m, x, h, sign, norm),
                   gf_harm_partial_sum(m, x, h, 6, sign, norm))
        else:
            out = (gf_mon_closed(m, x, h, norm).terms,
                   gf_mon_partial_sum(m, x, h, 6, norm).terms)
        digest.update(repr(out).encode())
    assert digest.hexdigest() == FLOAT_SAMPLE_SHA256
