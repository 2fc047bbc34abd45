"""Standard orthogonal basis of spherical monogenics and its generating function.

Monogenics are Clifford-valued polynomials annihilated by the Dirac operator.
The basis is built like the harmonic one but with Clifford embedding factors

    X^(k)_{m,j} = (m-2+k+2j)/(m-2+2j) * F^(k)_{m,j} + F^(k-1)_{m,j+1} * ux*e_m

(ux = x_1 e_1 + ... + x_{m-1} e_{m-1}, F^(-1) = 0) multiplying the dimension-2
base (x_1 - e_12 x_2)^{k_2}/k_2! from the left, outermost dimension leftmost.
The Clifford product does not commute, so the factor order is part of the
definition; it is encoded in exactly one place, the left-multiplied product
`harmonics._basis_product` that `mon_basis` and `harm_basis` share.

The generating function M_m(x, h) = sum_k mon_k(x) h^k satisfies

    M_m(x, h) = (1 + x h_m e_m) * d_m^(-m/2) * M_{m-1}(x', h'/d_m)

with the same d_m kernel as the harmonic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .clifford import E12, Multivector, blade_product
from .errors import SingularityError
from .harmonics import (FACTORIAL, FLOAT_OVERFLOW, PLAIN, DomainBox, _base2, _base_powers,
                        _basis_product, _check_norm, _check_point, _descend,
                        _gf_series, _Index, _partial_sum, _plain_denominator,
                        embedding_F, embedding_f_value, iter_multi_indices)
from .hseries import HSeries, _underline_x_em
from .mvpoly import CLIFFORD, MPoly


@dataclass(frozen=True)
class MonIndex(_Index):
    """Label of one spherical monogenic: multi-index and normalization."""

    normalization: str = FACTORIAL

    def __str__(self):
        return f"mon_{{{','.join(map(str, self.k))}}} [{self.normalization}]"


@lru_cache(maxsize=None)
def embedding_X(m: int, j: int, k: int) -> MPoly:
    """Clifford embedding factor X^(k)_{m,j}; Dirac-annihilated and degree k."""
    if m < 3:
        raise ValueError("embedding factors need m >= 3")
    if j < 0 or k < 0:
        raise ValueError("j and k must be non-negative")
    scale = Fraction(m - 2 + k + 2 * j, m - 2 + 2 * j)
    first = embedding_F(m, j, k).to_clifford().scale(scale)
    second = embedding_F(m, j + 1, k - 1).to_clifford() * _underline_x_em(m)
    return first + second


def mon_basis(idx: MonIndex) -> MPoly:
    """The spherical monogenic labelled by idx, with the factor order of the definition."""
    return _basis_product(idx, _base2(-1, CLIFFORD), embedding_X)


def enumerate_mon_indices(m: int, deg_max: int,
                          normalization: str = FACTORIAL) -> list[MonIndex]:
    """All monogenic labels with |k| <= deg_max, lexicographic."""
    _check_norm(normalization)
    return [MonIndex(k, normalization) for k in iter_multi_indices(m - 1, deg_max)]


# -- float evaluation ------------------------------------------------------


def _base2_mon_value(x1: float, x2: float, h2: float, normalization: str) -> tuple:
    """The scalar and e_12 coefficients of exp((x_1 - e_12 x_2) h_2)
    = e^{x_1 h_2}(cos(x_2 h_2) - e_12 sin(x_2 h_2)), or of the plain rational base."""
    if normalization == FACTORIAL:
        r = math.exp(x1 * h2)
        phase = x2 * h2
        if not math.isfinite(phase):
            # cos and sin of an infinite phase have no value, unless r underflowed to 0
            if r != 0.0:
                raise ValueError(FLOAT_OVERFLOW)
            return 0.0, 0.0
        return r * math.cos(phase), -r * math.sin(phase)
    denom = _plain_denominator(x1, x2, h2)
    return (1.0 - x1 * h2) / denom, -x2 * h2 / denom


@lru_cache(maxsize=None)
def _prefactor_blades(r: int) -> tuple:
    """_u_blades(r, r) on the blades of R_{0,r} that hold e_r: for each i < r, the
    (sign, source) pairs with e_i e_r * e_source = sign * e_target, target = t + e_r
    for t < 2^(r-1)."""
    half = 1 << (r - 1)
    return tuple(pairs[half:] for pairs in _u_blades(r, r))


def _prefactor_times(r: int, x, hr: float, v: list) -> list:
    """(1 + x h_r e_r) * v on dense blade lists: v lies in R_{0,r-1}, the result in R_{0,r}.

    1 + x h_r e_r = (1 - x_r h_r) + sum_{i<r} (x_i h_r) e_i e_r, and every e_i e_r
    holds e_r while no blade of v does: the blades without e_r are (1 - x_r h_r)*v,
    and those with e_r sum the e_i e_r terms in ascending i, as the sparse
    Multivector product of the two does.
    """
    a = 1.0 - x[r - 1] * hr
    first, *rest = _prefactor_blades(r)
    c = x[0] * hr
    upper = [c * sign * v[src] for sign, src in first]
    for i, pairs in enumerate(rest, 1):
        c = x[i] * hr
        upper = [u + c * sign * v[src] for u, (sign, src) in zip(upper, pairs)]
    return [a * t for t in v] + upper


def gf_mon_closed(m: int, x, h, normalization: str = FACTORIAL,
                  unsafe_domain: bool = False) -> Multivector:
    """Closed-form value of the monogenic generating function (float multivector).

    The value stays a dense blade list, one prefactor at a time from r = 3 up,
    and becomes one Multivector at the end.
    """
    _check_norm(normalization)
    x, h = _check_point(m, x, h, unsafe_domain)
    levels, h2 = _descend(x, h)
    try:
        scale = 1.0
        for r, d, _ in levels:
            scale *= d ** (-r / 2.0)
        b0, b12 = _base2_mon_value(x[0], x[1], h2, normalization)
    except OverflowError as exc:
        raise ValueError(FLOAT_OVERFLOW) from exc
    value = [scale * b0, 0.0, 0.0, scale * b12]
    for r, _, hr in reversed(levels):
        value = _prefactor_times(r, x, hr, value)
    if not all(map(math.isfinite, value)):
        raise ValueError(FLOAT_OVERFLOW)
    return Multivector(m, dict(enumerate(value)))


def gf_mon_closed_m3(x, h, normalization: str = FACTORIAL,
                     unsafe_domain: bool = False) -> Multivector:
    """Literal m = 3 closed formula (1 + x h_3 e_3) d^(-3/2) exp((x_1 - e_12 x_2) h_2 / d)."""
    _check_norm(normalization)
    x, h = _check_point(3, x, h, unsafe_domain)
    x1, x2, x3 = x
    h2, h3 = h
    d = 1.0 - 2.0 * x3 * h3 + h3 * h3 * (x1 * x1 + x2 * x2 + x3 * x3)
    if not math.isfinite(d):
        raise ValueError(FLOAT_OVERFLOW)
    if d <= 0.0:
        raise SingularityError(f"kernel d_3 = {d} is not positive")
    prefactor = Multivector(3, {0: 1.0 - x3 * h3,
                                0b101: x1 * h3,
                                0b110: x2 * h3})
    try:
        b0, b12 = _base2_mon_value(x1, x2, h2 / d, normalization)
        value = prefactor * Multivector(3, {0: b0, E12: b12}).scale(d ** -1.5)
    except OverflowError as exc:
        raise ValueError(FLOAT_OVERFLOW) from exc
    if not all(map(math.isfinite, value.terms.values())):
        raise ValueError(FLOAT_OVERFLOW)
    return value


def gf_mon_series(m: int, order: int, normalization: str = FACTORIAL) -> HSeries:
    """Exact truncated generating series; coefficient at k equals mon_basis(k)."""
    _check_norm(normalization)
    return _gf_series(_base2(-1, CLIFFORD), m, order, normalization)


def embedding_x_value(m: int, top: int, j: int, k: int, x) -> Multivector:
    """Float value of X^(k)_{m,j} at a point, inside R_{0,top}."""
    f0 = embedding_f_value(m, j, k, x)
    f1 = embedding_f_value(m, j + 1, k - 1, x)
    scale = (m - 2 + k + 2 * j) / (m - 2 + 2 * j)
    em = 1 << (m - 1)
    terms = {0: scale * f0}
    for i in range(1, m):
        terms[(1 << (i - 1)) | em] = f1 * float(x[i - 1])
    return Multivector(top, terms)


def _mon_split(r: int, table: list, j: int, k: int) -> tuple:
    """X^(k)_{r,j} = a + b*U_r with U_r = ux*e_r = sum_{i<r} x_i e_i e_r (see _partial_sum)."""
    a = (r - 2 + k + 2 * j) / (r - 2 + 2 * j) * table[j][k]
    b = table[j + 1][k - 1] if k else 0.0
    return a, b


@lru_cache(maxsize=None)
def _u_blades(m: int, r: int) -> tuple:
    """For each i < r, the pairs (sign, source) with e_i e_r * e_source = sign * e_target,
    listed by target blade of R_{0,m}."""
    er = 1 << (r - 1)
    out = []
    for i in range(1, r):
        u = (1 << (i - 1)) | er
        out.append(tuple((blade_product(u, t ^ u, m)[0], t ^ u) for t in range(1 << m)))
    return tuple(out)


def _u_product(m: int, x):
    """times_u(r, v) = U_r * v on dense blade lists, U_r = sum_{i<r} x_i e_i e_r."""
    columns = {r: [[(x[i] * sign, src) for sign, src in pairs]
                   for i, pairs in enumerate(_u_blades(m, r))]
               for r in range(3, m + 1)}

    def times_u(r: int, v: list) -> list:
        first, *rest = columns[r]
        out = [c * v[src] for c, src in first]
        for col in rest:
            out = [o + c * v[src] for o, (c, src) in zip(out, col)]
        return out
    return times_u


def gf_mon_partial_sum(m: int, x, h, order: int,
                       normalization: str = FACTORIAL) -> Multivector:
    """Float partial sum of the monogenic generating series over |k| <= order."""
    _check_norm(normalization)
    x, h = _check_point(m, x, h, unsafe_domain=True)
    # x_1 - e_12 x_2 spans a copy of C (e_12^2 = -1), so its powers are complex ones.
    base_values = []
    for z in _base_powers(complex(x[0], -x[1]), complex(1.0), order, normalization):
        dense = [0.0] * (1 << m)
        dense[0], dense[E12] = z.real, z.imag
        base_values.append(dense)
    total = _partial_sum(m, x, h, order, base_values, _mon_split, _u_product(m, x))
    return Multivector(m, dict(enumerate(total)))


__all__ = [
    "MonIndex", "DomainBox", "embedding_X", "mon_basis", "enumerate_mon_indices",
    "gf_mon_closed", "gf_mon_closed_m3", "gf_mon_series", "gf_mon_partial_sum",
    "embedding_x_value", "FACTORIAL", "PLAIN",
]
