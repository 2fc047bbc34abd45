"""Standard orthogonal basis of spherical monogenics and its generating function.

Monogenics are Clifford-valued polynomials annihilated by the Dirac operator.
The basis is built like the harmonic one but with Clifford embedding factors

    X^(k)_{m,j} = (m-2+k+2j)/(m-2+2j) * F^(k)_{m,j} + F^(k-1)_{m,j+1} * ux*e_m

(ux = x_1 e_1 + ... + x_{m-1} e_{m-1}, F^(-1) = 0) multiplying the dimension-2
base (x_1 - e_12 x_2)^{k_2}/k_2! from the left, outermost dimension leftmost.
The Clifford product does not commute, so the factor order is part of the
definition; it is encoded in exactly one place, the left-multiplied product
chain `harmonics._chain` that `mon_basis` and `harm_basis` share.

The generating function M_m(x, h) = sum_k mon_k(x) h^k satisfies

    M_m(x, h) = (1 + x h_m e_m) * d_m^(-m/2) * M_{m-1}(x', h'/d_m)

with the same d_m kernel as the harmonic case.  The float closed form runs
the harmonic descent with the power d_m^(-m/2) and the base sign -1 (e12 read
as i), then applies the prefactors.  Each prefactor and each Clifford
embedding factor X = a + b*U_r of the partial sums multiplies by
U_r = sum_{i<r} x_i e_i e_r through one kernel, _u_times.  The base and every U_r
are even, so M_m lies in R+_{0,m}: a float value lists the 2^(r-1) even blades of R_{0,r},
and becomes a Multivector through the trusted Multivector._of_floats.  The literal
m = 3 formula writes its one prefactor product out on the four even blades of R_{0,3},
apart from _u_times and _closed_form, so it checks both from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .clifford import E12, Multivector, blade_sign
from .errors import _float_value, _integer
from .harmonics import (FACTORIAL, _base2, _base2_value, _basis_product,
                        _check_norm, _check_point, _closed_form, _descend, _dimension,
                        _factor_label, _gf_series, _Index, _partial_sum, embedding_F,
                        embedding_f_value, iter_multi_indices)
from .hseries import HSeries, _underline_x_em
from .mvpoly import CLIFFORD, MPoly


@dataclass(frozen=True)
class MonIndex(_Index):
    """Label of one spherical monogenic: multi-index and normalization."""

    normalization: str = FACTORIAL

    def __str__(self):
        return f"mon_{{{','.join(map(str, self.k))}}} [{self.normalization}]"


@lru_cache(maxsize=None, typed=True)
def embedding_X(m: int, j: int, k: int) -> MPoly:
    """Clifford embedding factor X^(k)_{m,j}; Dirac-annihilated and degree k.

    A label with m < 3, j < 0, k < 0 or a non-integral entry is a ValueError.
    """
    m, j, k = _factor_label(m, j, k, k_min=0)
    scale = Fraction(m - 2 + k + 2 * j, m - 2 + 2 * j)
    first = embedding_F(m, j, k).to_clifford().scale(scale)
    second = embedding_F(m, j + 1, k - 1).to_clifford() * _underline_x_em(m)
    return first + second


def mon_basis(idx: MonIndex) -> MPoly:
    """The spherical monogenic labelled by idx, with the factor order of the definition."""
    return _basis_product(idx, -1, CLIFFORD, embedding_X)


def enumerate_mon_indices(m: int, deg_max: int,
                          normalization: str = FACTORIAL) -> list[MonIndex]:
    """All monogenic labels with |k| <= deg_max, lexicographic."""
    _check_norm(normalization)
    return [MonIndex(k, normalization) for k in iter_multi_indices(_dimension(m) - 1, deg_max)]


# -- float evaluation ------------------------------------------------------


@lru_cache(maxsize=None)
def _even_blades(r: int) -> tuple:
    """The even blade masks of R_{0,r} in ascending order; mask t sits at position t >> 1."""
    return tuple(t for t in range(1 << r) if t.bit_count() % 2 == 0)


@lru_cache(maxsize=None)
def _u_blades(r: int) -> tuple:
    """For each i < r, the pairs (sign, source >> 1) with e_i e_r * e_source = sign * e_target
    for the even targets of R_{0,r} holding e_r: source >> 1 is the position in R+_{0,r-1}.
    The sign is the float +1.0 or -1.0, by which a float product is exact."""
    targets = _even_blades(r)[1 << (r - 2):]
    return tuple(tuple((float(blade_sign(u, t ^ u)), (t ^ u) >> 1) for t in targets)
                 for u in ((1 << i) | (1 << (r - 1)) for i in range(r - 1)))


def _u_times(r: int, x, s: float, v) -> list:
    """(sum_{i<r} x_i s e_i e_r) * v on even blade lists: v lies in R+_{0,r-1}, and the
    result is the e_r half of R+_{0,r}, since each e_i e_r is even and keeps the parity.

    The terms are summed in ascending i, as the sparse Multivector product does.
    The closed form calls it with s = h_r, the partial sums with s = 1.0.
    """
    first, *rest = _u_blades(r)
    c = x[0] * s
    out = [c * sign * v[src] for sign, src in first]
    for i, pairs in enumerate(rest, 1):
        c = x[i] * s
        out = [o + c * sign * v[src] for o, (sign, src) in zip(out, pairs)]
    return out


@_float_value
def gf_mon_closed(m: int, x, h, normalization: str = FACTORIAL,
                  unsafe_domain: bool = False) -> Multivector:
    """Closed-form value of the monogenic generating function (float multivector).

    The shared descent gives the scalar and e12 parts; the value then stays a
    list of the even blades of R_{0,r} (the base and each prefactor are even)
    while each prefactor 1 + x h_r e_r = (1 - x_r h_r) + sum_{i<r} (x_i h_r) e_i e_r
    multiplies it from r = 3 up, and becomes one Multivector at the end.  No
    blade of the value holds e_r, so (1 - x_r h_r) times it is the lower half
    of the product and _u_times the upper half.
    """
    _check_norm(normalization)
    x, levels, base = _closed_form(m, x, h, 0, -1, normalization, unsafe_domain)
    value = [base.real, base.imag]
    for r, _, hr in reversed(levels):
        a = 1.0 - x[r - 1] * hr
        value = [a * t for t in value] + _u_times(r, x, hr, value)
    return Multivector._of_floats(len(x), zip(_even_blades(len(x)), value))


@_float_value
def gf_mon_closed_m3(x, h, normalization: str = FACTORIAL,
                     unsafe_domain: bool = False) -> Multivector:
    """Literal m = 3 closed formula (1 + x h_3 e_3) d^(-3/2) exp((x_1 - e_12 x_2) h_2 / d).

    With the prefactor p0 + p1*e13 + p2*e23 (p0 = 1 - x_3 h_3, p1 = x_1 h_3,
    p2 = x_2 h_3) and the scaled base a + b*e12, the product is written out on
    its four even blades: e13 e12 = -e23 and e23 e12 = e13.  It runs neither
    _u_times nor _closed_form, so it is an independent check of both.
    """
    _check_norm(normalization)
    x, h = _check_point(3, x, h, unsafe_domain)
    [(_, d, _)], _ = _descend(x, h)
    (x1, x2, x3), (h2, h3) = x, h
    base = _base2_value(x1, x2, h2 / d, -1, normalization)
    scale = d ** -1.5
    a, b = scale * base.real, scale * base.imag
    p0, p1, p2 = 1.0 - x3 * h3, x1 * h3, x2 * h3
    return Multivector._of_floats(3, ((0, p0 * a), (E12, p0 * b),
                                      (0b101, p1 * a + p2 * b), (0b110, -(p1 * b) + p2 * a)))


def gf_mon_series(m: int, order: int, normalization: str = FACTORIAL) -> HSeries:
    """Exact truncated generating series; coefficient at k equals mon_basis(k)."""
    _check_norm(normalization)
    return _gf_series(_base2(-1, CLIFFORD), m, order, normalization)


@_float_value
def embedding_x_value(m: int, top: int, j: int, k: int, x) -> Multivector:
    """Float value of X^(k)_{m,j} at a point, inside R_{0,top}.

    A label refused by embedding_X, a top below m or a coordinate that is not finite
    is a ValueError, and a coefficient that is not finite a FLOAT_OVERFLOW ValueError.
    """
    m, j, k = _factor_label(m, j, k, k_min=0)
    if _integer(top, "top") < m:
        raise ValueError(f"top must be at least m = {m}, got {top}")
    f0 = embedding_f_value(m, j, k, x)
    f1 = embedding_f_value(m, j + 1, k - 1, x)
    scale = (m - 2 + k + 2 * j) / (m - 2 + 2 * j)
    em = 1 << (m - 1)
    terms = {0: scale * f0}
    for i in range(1, m):
        terms[(1 << (i - 1)) | em] = f1 * float(x[i - 1])
    return Multivector(top, terms)


@lru_cache(maxsize=64)
def _x_scales(r: int, order: int) -> tuple:
    """(r-2+k+2j)/(r-2+2j), the scale of F^(k)_{r,j} in X^(k)_{r,j}, by [s][k] for j = s - k."""
    return tuple(tuple((r - 2 + k + 2 * (s - k)) / (r - 2 + 2 * (s - k)) for k in range(s + 1))
                 for s in range(order + 1))


def _x_split(r: int, f: list) -> tuple:
    """X^(k)_{r,j} = a + b*U_r (U_r = ux*e_r) on the diagonals f[s][k] = F^(k)_{r,j}, j = s - k:
    a[s][k] = scale * F^(k)_{r,j} for k <= s and b[s][k-1] = F^(k-1)_{r,j+1} for 1 <= k <= s."""
    a = [list(map(mul, scales, row)) for scales, row in zip(_x_scales(r, len(f) - 1), f)]
    return a, [row[:-1] for row in f]


@_float_value
def gf_mon_partial_sum(m: int, x, h, order: int,
                       normalization: str = FACTORIAL) -> Multivector:
    """Float partial sum of the monogenic generating series over |k| <= order."""
    _check_norm(normalization)
    x, h = _check_point(m, x, h, unsafe_domain=True)
    # x_1 - e_12 x_2 spans a copy of C (e_12^2 = -1), so its powers are complex ones.
    total = _partial_sum(x, h, order, -1, normalization, lambda z: [z.real, z.imag],
                         _x_split, _u_times)
    return Multivector._of_floats(len(x), zip(_even_blades(len(x)), total))

