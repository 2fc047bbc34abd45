"""Standard orthogonal basis of spherical harmonics and its generating function.

The basis in dimension m is indexed by k = (k_2..k_m): a complex base
polynomial (x_1 +/- i*x_2)^{k_2} (divided by k_2! in the default
normalization) times one embedding factor per extra dimension,

    F^(k)_{r,j}(x) = |x|_r^k * C^{r/2+j-1}_k(x_r / |x|_r),

which is a genuine polynomial thanks to the parity of the Gegenbauer
polynomials.  Exact and float F share one implementation, the homogenized
Gegenbauer recurrence of _f_row: run on polynomials it gives embedding_F, on
floats the value tables of the partial sums.

The generating function H_m(x, h) = sum_k harm_k(x) h^k has a closed form
obtained by the dimension recurrence

    H_m(x, h) = d_m^{1 - m/2} * H_{m-1}(x', h'/d_m),
    d_m = 1 - 2*x_m*h_m + h_m^2*|x|_m^2,

and this module evaluates it three ways: exact truncated series, float
closed form by the recurrence, and float partial sums of the series.

The monogenic module reuses each of these steps (the private helpers here
take the ring-specific base, factors and scaling as arguments), so every
recursion has one implementation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from operator import add, mul

from .clifford import E12
from .errors import (FLOAT_OVERFLOW, DomainError, SingularityError, _at_least, _float_value,
                     _floats, _integer)
from .hseries import HSeries, exp_series, lift_step, power_series
from .mvpoly import GAUSSIAN, MPoly, radius_squared

FACTORIAL = "factorial"
PLAIN = "plain"

_NORMS = (FACTORIAL, PLAIN)


def _norm_sign(sign) -> int:
    if sign in (+1, "+", "plus"):
        return +1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be + or -, got {sign!r}")


def _check_norm(normalization: str) -> str:
    if normalization not in _NORMS:
        raise ValueError(f"normalization must be one of {_NORMS}, got {normalization!r}")
    return normalization


def iter_multi_indices(parts: int, total: int):
    """All tuples of `parts` non-negative ints with sum <= total, lexicographic.

    The arguments are checked at the call, before the first tuple is asked for.
    """
    return _multi_indices(_at_least(parts, "parts", 0), _integer(total, "total"))


def _multi_indices(parts: int, total: int):
    if parts == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _multi_indices(parts - 1, total - first):
            yield (first,) + rest


def _dimension(m) -> int:
    """m as an int of at least 2; anything else is a ValueError."""
    return _at_least(m, "dimension", 2)


@dataclass(frozen=True)
class _Index:
    """What every basis label shares: the multi-index (k_2..k_m) and its checks.

    Subclasses add their own fields after k, including `normalization`.
    """

    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(_at_least(v, "an index entry", 0) for v in self.k))
        _check_norm(self.normalization)
        if len(self.k) < 1:
            raise ValueError("index needs at least the k_2 entry (m >= 2)")

    @property
    def m(self) -> int:
        return len(self.k) + 1

    def degree(self) -> int:
        return sum(self.k)


@dataclass(frozen=True)
class BasisIndex(_Index):
    """Label of one spherical harmonic: multi-index, sign tag and normalization."""

    sign: int = +1
    normalization: str = FACTORIAL

    def __post_init__(self):
        object.__setattr__(self, "sign", _norm_sign(self.sign))
        super().__post_init__()

    def __str__(self):
        sign = "+" if self.sign > 0 else "-"
        return f"harm_{{{','.join(map(str, self.k))}}}^{sign} [{self.normalization}]"


@dataclass(frozen=True)
class DomainBox:
    """Conservative convergence box: |h_r| <= (1/2) * 4^(r-m), h_2 unconstrained.

    This is the region certified by the induction proof (each dimension step
    shrinks the lower bounds by 4 because d_m > 1/4 there).  The true domain
    is larger; callers may bypass the check explicitly.
    """

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _dimension(self.m))

    def bound(self, r: int):
        if not 2 <= r <= self.m:
            raise ValueError(f"h index {r} out of range 2..{self.m}")
        if r == 2:
            return None
        return Fraction(1, 2) * Fraction(1, 4) ** (self.m - r)

    def bounds(self) -> tuple:
        return tuple(self.bound(r) for r in range(2, self.m + 1))

    def contains(self, h) -> bool:
        h = list(h)
        if len(h) != self.m - 1:
            raise ValueError(f"h needs {self.m - 1} entries for dimension {self.m}")
        return _in_box(self.m, h)


@lru_cache(maxsize=None)
def _box_bounds(m: int) -> tuple:
    """DomainBox(m).bound(r) for r = 3..m as floats: the box _in_box tests.

    Each bound is a power of two, so its float is exact and a float comparison
    with it decides as the Fraction one; a bound below the smallest subnormal
    float stays a Fraction.
    """
    exact = DomainBox(m).bounds()[1:]
    return tuple(float(b) if float(b) == b else b for b in exact)


def _in_box(m: int, h) -> bool:
    """|h_r| <= (1/2) * 4^(r-m) for r = 3..m; a NaN entry is outside."""
    for v, bound in zip(h[1:], _box_bounds(m)):
        if not abs(v) <= bound:
            return False
    return True


def _factor_label(m, j, k, k_min: int = -1) -> tuple:
    """(m, j, k) as ints with m >= 3, j >= 0 and k >= k_min; anything else is a ValueError."""
    return _at_least(m, "the dimension m", 3), _at_least(j, "j", 0), _at_least(k, "k", k_min)


@lru_cache(maxsize=1024, typed=True)  # Fraction(3, 2) == 1.5, but each steps in its own type
def _f_steps(nu, k_max: int) -> tuple:
    """((n, 2*(n+nu-1), n+2*nu-2) for n = 1..k_max), the constants of _f_row, in nu's type."""
    unit = nu - nu + 1
    two = unit + unit
    n, steps = nu - nu, []
    for _ in range(k_max):
        n = n + unit
        steps.append((n, two * (n + nu - unit), n + two * nu - two))
    return tuple(steps)


def _f_row(steps, xm, r2, zero, one) -> list:
    """[F_0, ..., F_k_max] of F^(k)_{m,j}, nu = m/2 + j - 1, by the homogenized recurrence

        n*F_n = 2*(n+nu-1)*x_m*F_{n-1} - (n+2*nu-2)*|x|_m^2*F_{n-2},  F_{-1} = zero, F_0 = one,

    with steps = _f_steps(nu, k_max): floats at a point (xm, r2 from _f_inputs),
    or a Fraction nu with the polynomials x_m and |x|_m^2.
    """
    prev, cur = zero, one
    row = [cur]
    for n, c1, c2 in steps:
        prev, cur = cur, (c1 * xm * cur - c2 * r2 * prev) / n
        row.append(cur)
    return row


@lru_cache(maxsize=None, typed=True)
def embedding_F(m: int, j: int, k: int) -> MPoly:
    """Embedding factor F^(k)_{m,j} as an exact polynomial in x_1..x_m.

    k = -1 yields the zero polynomial (the convention the monogenic
    embedding factors rely on).  A label with m < 3, j < 0, k < -1 or a
    non-integral entry is a ValueError.
    """
    m, j, k = _factor_label(m, j, k)
    if k == -1:
        return MPoly.zero(m)
    return _f_row(_f_steps(Fraction(m, 2) + j - 1, k), MPoly.variable(m, m), radius_squared(m),
                  MPoly.zero(m), MPoly.constant(m, 1))[-1]


def _base2(sign: int, ring: str) -> MPoly:
    """x_1 + sign*e12*x_2: the harmonic base x_1 +/- i*x_2 (gaussian ring, e12 = i)
    and, with sign -1, the monogenic base x_1 - e12*x_2 (clifford ring)."""
    return MPoly._make(2, ring, {((1, 0), 0): Fraction(1), ((0, 1), E12): Fraction(sign)})


@lru_cache(maxsize=None)
def _chain(sign: int, ring: str, factor, k: tuple) -> MPoly:
    """The plain basis polynomial of the label prefix k = (k_2..k_r), at dimension r.

    It follows the paper's dimension recursion: chain((k_2,)) = base^{k_2} with
    base = _base2(sign, ring), and

        chain(k_2..k_r) = factor(r, k_2 + ... + k_{r-1}, k_r) * chain(k_2..k_{r-1}),

    the dimension-r embedding factor multiplied from the left, so the outermost
    dimension is leftmost.  The cache is keyed on the base's sign and ring, the
    factor function and the prefix, so labels that share a prefix share its
    chain and every product is made once.
    """
    if len(k) == 1:
        return _base2(sign, ring) ** k[0]
    r = len(k) + 1
    return factor(r, sum(k[:-1]), k[-1]) * _chain(sign, ring, factor, k[:-1]).embed(r)


def _basis_product(idx, sign: int, ring: str, factor) -> MPoly:
    """Basis polynomial of idx: factor_m * ... * factor_3 * base^{k_2}, by the dimension
    recursion of the cached _chain, with factor(r, k_2 + ... + k_{r-1}, k_r) the
    dimension-r embedding factor.

    The normalization is applied last: the plain basis is the cached chain itself
    and the factorial one that chain divided by k_2!, so both share one chain.
    MPoly keeps one canonical form, so the result equals the one of dividing
    base^{k_2} first, term for term.
    """
    poly = _chain(sign, ring, factor, idx.k)
    if idx.normalization == FACTORIAL:
        poly = poly.scale(Fraction(1, math.factorial(idx.k[0])))
    return poly


def harm_basis(idx: BasisIndex) -> MPoly:
    """The spherical harmonic labelled by idx; homogeneous of degree |k| and harmonic."""
    return _basis_product(idx, idx.sign, GAUSSIAN, embedding_F)


def real_basis(idx: BasisIndex) -> tuple[MPoly, MPoly]:
    """Real and imaginary parts of the sign=+ harmonic (a real orthogonal basis)."""
    plus = harm_basis(BasisIndex(idx.k, +1, idx.normalization))
    return plus.real_part(), plus.imag_part()


def enumerate_harm_indices(m: int, deg_max: int,
                           normalization: str = FACTORIAL) -> list[BasisIndex]:
    """All basis labels with |k| <= deg_max, deduplicated: k_2 = 0 appears with + only."""
    _check_norm(normalization)
    out = []
    for k in iter_multi_indices(_dimension(m) - 1, deg_max):
        out.append(BasisIndex(k, +1, normalization))
        if k[0] > 0:
            out.append(BasisIndex(k, -1, normalization))
    return out


# -- float evaluation ------------------------------------------------------


def _sum_squares(values) -> float:
    """v_1^2 + v_2^2 + ... added left to right, so that every Python gives the
    same bits (sum() compensates its rounding from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v * v
    return total


def _check_point(m: int, x, h, unsafe_domain: bool):
    m = _dimension(m)
    x = _floats(x, "a coordinate of x")
    h = _floats(h, "a coordinate of h")
    if len(x) != m:
        raise ValueError(f"x needs {m} coordinates")
    if len(h) != m - 1:
        raise ValueError(f"h needs {m - 1} coordinates")
    if not unsafe_domain:
        if _sum_squares(x) > 1.0 + 1e-12:
            raise DomainError("point lies outside the closed unit ball")
        if not _in_box(m, h):
            raise DomainError("h lies outside the certified convergence box")
    return x, h


def _descend(x, h):
    """The dimension recursion from m = len(x) down to 2.

    Returns the levels [(r, d_r, h_r)] for r = m..3, where h_r is the already
    rescaled h entry and d_r = 1 - 2*x_r*h_r + h_r^2*|x|_r^2 > 0, and the final
    rescaled h_2.  An h entry is rescaled by dividing it by the d of each level
    above its own, from r = m down.  A kernel that is not finite (|x|^2 or h_r^2
    overflowed) is a FLOAT_OVERFLOW ValueError.

    |x|_r^2 is read from the running sums |x|_1^2, |x|_2^2, ..., added once left
    to right: the additions of _sum_squares(x[:r]), in its order.
    """
    squares, total = [], 0.0
    for v in x:
        total += v * v
        squares.append(total)
    levels, h2 = [], h[0]
    for r in range(len(x), 2, -1):
        hr = h[r - 2]
        for _, above, _ in levels:
            hr /= above
        d = 1.0 - 2.0 * x[r - 1] * hr + hr * hr * squares[r - 1]
        if not math.isfinite(d):
            raise ValueError(FLOAT_OVERFLOW)
        if d <= 0.0:
            raise SingularityError(f"kernel d_{r} = {d} is not positive")
        levels.append((r, d, hr))
        h2 /= d
    return levels, h2


def _plain_denominator(x1: float, x2: float, h2: float) -> float:
    """1 - 2*x_1*h_2 + h_2^2*(x_1^2 + x_2^2), the plain base's denominator."""
    denom = 1.0 - 2.0 * x1 * h2 + h2 * h2 * (x1 * x1 + x2 * x2)
    if not math.isfinite(denom):
        raise ValueError(FLOAT_OVERFLOW)
    if denom <= 0.0:
        raise SingularityError("plain base denominator vanished")
    return denom


def _exp(w: complex) -> complex:
    """cmath.exp(w), whose phase w.imag must be finite unless |exp(w)| underflows to 0.

    An infinite phase with a nonzero magnitude has no value: that is a
    FLOAT_OVERFLOW ValueError (cmath raises "math domain error" there).
    """
    if not math.isfinite(w.imag):
        if math.exp(w.real) != 0.0:
            raise ValueError(FLOAT_OVERFLOW)
        return 0j
    return cmath.exp(w)


def _base2_value(x1: float, x2: float, h2: float, sign: int,
                 normalization: str) -> complex:
    """exp((x_1 + sign*i*x_2) h_2), or the plain rational base, at a float point.

    With sign -1 and e12 read as i it is the monogenic base value too: its real
    and imaginary parts are the scalar and e12 coefficients.
    """
    z = complex(x1, sign * x2)
    if normalization == FACTORIAL:
        return _exp(z * h2)
    return (1.0 - z.conjugate() * h2) / _plain_denominator(x1, x2, h2)


def _closed_form(m: int, x, h, lift: int, sign: int, normalization: str,
                 unsafe_domain: bool):
    """The closed-form descent both families share.

    Checks the point, runs the d_r descent (_descend) and returns
    (x, levels, value) with value = prod_r d_r^(lift - r/2) * base value at the
    rescaled h_2 as a complex number: lift = 1 gives the harmonic generating
    function, lift = 0 the scalar part of the monogenic one before its
    prefactors (base sign -1, e12 read as i).  The entry points' float-range
    boundary (errors._float_value) refuses a value beyond the float range.
    """
    x, h = _check_point(m, x, h, unsafe_domain)
    levels, h2 = _descend(x, h)
    value = complex(1.0)
    for r, d, _ in levels:
        value *= d ** (lift - r / 2.0)
    return x, levels, value * _base2_value(x[0], x[1], h2, sign, normalization)


@_float_value
def gf_harm_closed(m: int, x, h, sign=+1, normalization: str = FACTORIAL,
                   unsafe_domain: bool = False) -> complex:
    """Closed-form value of the generating function by downward dimension recursion."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    return _closed_form(m, x, h, 1, sign, normalization, unsafe_domain)[2]


@_float_value
def gf_harm_closed_m3(x, h, sign=+1, normalization: str = FACTORIAL,
                      unsafe_domain: bool = False) -> complex:
    """Literal m = 3 closed formula: d^(-1/2) * exp((x_1 +/- i*x_2) h_2 / d), d = d_3 (_descend)."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    x, h = _check_point(3, x, h, unsafe_domain)
    [(_, d, _)], _ = _descend(x, h)
    (x1, x2, _), (h2, _) = x, h
    if normalization == FACTORIAL:
        return d ** -0.5 * _exp(complex(x1 * h2 / d, sign * x2 * h2 / d))
    g = h2 / d
    return d ** -0.5 * (1.0 - complex(x1, -sign * x2) * g) / _plain_denominator(x1, x2, g)


def _gf_series(base: MPoly, m: int, order: int, normalization: str) -> HSeries:
    """exp(base*h_2) or the plain power series, lifted to dimension m."""
    m = _dimension(m)
    if normalization == FACTORIAL:
        series = exp_series(base, order)
    else:
        series = power_series(base, order)
    for _ in range(3, m + 1):
        series = lift_step(series)
    return series


def gf_harm_series(m: int, order: int, sign=+1,
                   normalization: str = FACTORIAL) -> HSeries:
    """Exact truncated generating series; coefficient at k equals harm_basis(k)."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    return _gf_series(_base2(sign, GAUSSIAN), m, order, normalization)


def _f_inputs(m: int, x) -> tuple:
    """(x_m, |x|_m^2) as floats: all that an F row at dimension m reads of the point.

    A coordinate beyond the float range or not finite is a ValueError, and an
    |x|_m^2 (_sum_squares) that is not finite a FLOAT_OVERFLOW ValueError."""
    coords = _floats((x[i] for i in range(m)), "a coordinate of x")
    r2 = _sum_squares(coords)
    if not math.isfinite(r2):
        raise ValueError(FLOAT_OVERFLOW)
    return coords[-1], r2


@_float_value
def embedding_f_value(m: int, j: int, k: int, x) -> float:
    """Float value of F^(k)_{m,j} at a point (first m coordinates of x are used).

    A label refused by embedding_F or a coordinate that is not finite is a
    ValueError, and a value that is not finite a FLOAT_OVERFLOW ValueError.
    """
    m, j, k = _factor_label(m, j, k)
    if len(x) < m:
        raise ValueError(f"x needs at least {m} coordinates")
    if k == -1:
        return 0.0
    return _f_row(_f_steps(m / 2.0 + j - 1.0, k), *_f_inputs(m, x), 0.0, 1.0)[k]


def _base_powers(base: complex, order: int, normalization: str) -> list:
    """Float values base^{k_2} (over k_2! in the factorial normalization), k_2 <= order."""
    values = [complex(1.0)]
    for k2 in range(1, order + 1):
        nxt = values[-1] * base
        if normalization == FACTORIAL:
            nxt = nxt * (1.0 / k2)
        values.append(nxt)
    return values


def _float_powers(base: float, order: int) -> list:
    """[base^0, ..., base^order]; a power beyond the float range is an OverflowError."""
    return [base ** k for k in range(order + 1)]


def _f_diagonals(m: int, order: int, x) -> list:
    """[[F^(k)_{m,s-k}(x) for k <= s] for s <= order]: F table diagonals as strided slices."""
    xm, r2 = _f_inputs(m, x)
    w = order + 2  # F^(k)_{m,j} sits at flat[j*w + k], so a diagonal j + k = s has stride w - 1
    flat = [0.0] * (w * (order + 1))
    for j in range(order + 1):
        steps = _f_steps(m / 2.0 + j - 1.0, order - j)
        flat[j * w:j * w + order + 1 - j] = _f_row(steps, xm, r2, 0.0, 1.0)
    return [flat[s:s * w + 1:w - 1][::-1] for s in range(order + 1)]


def _sums(diagonals: list, first: int, hpow: list, column) -> list:
    """[sum of c * column[s - k] * hpow[k] over k = first..s, c = diagonals[s][k - first],
    for s <= order]: each sum starts from 0.0 and runs in ascending k.  With first = 1
    (the b terms of _partial_sum) a term with c = 0 is skipped."""
    out, hpow = [], hpow[first:]
    for s, coeffs in enumerate(diagonals):
        values, powers = column[s - first::-1], hpow
        if first and 0.0 in coeffs:
            values, powers, coeffs = (compress(v, coeffs) for v in (values, powers, coeffs))
        t = 0.0
        for c, v, hk in zip(coeffs, values, powers):
            t = t + c * v * hk
        out.append(t)
    return out


def _partial_sum(x, h, order: int, sign: int, normalization: str, entries, split=None,
                 times_u=None) -> list:
    """Sum over |k| <= order of factor_m ... factor_3 * base_{k_2} * h^k at a checked point.

    m = len(x), base_{k_2} = entries(z^{k_2}), z = x_1 + sign*i*x_2 (over k_2! in the
    factorial normalization).  A value is one complex entry (harmonic), or the even
    blades of R_{0,r} in ascending mask order (e12 read as i), 2 -> ... -> 2^(m-1):
    the base x_1 - e12*x_2 and each U_r = sum_{i<r} x_i e_i e_r are even, so no odd
    blade is ever nonzero.  Each factor is a + b*U_r with scalars a, b: the harmonic
    one has a = F^(k)_{r,j}, b = 0, from the diagonals f of the F table (_f_diagonals);
    for the monogenic one split(r, f) gives the diagonals a[s][k_r] and b[s][k_r - 1],
    and times_u(r, x, 1.0, v) is the e_r half of U_r * v.

    A factor depends on the lower indices only through j = k_2 + ... + k_{r-1},
    so the sum is built one dimension at a time by total degree: level[s] is
    the dimension-r sum over k_2 + ... + k_r = s, V[j] = U_r * level_{r-1}[j], and

        level_r[s] = sum_{k_r <= s} (a * level_{r-1}[j] + b * V[j]) * h_r^{k_r},  j = s - k_r.

    No blade of level_{r-1} holds e_r and every blade of V does, so the a terms fill
    the lower half of level_r[s] and the b terms its upper half.  A level holds one
    column over s per blade; a dimension costs one F table and order + 1 products
    by U_r, and each blade is summed on its own (_sums).  A power of an h entry
    beyond the float range raises OverflowError; the entry points' float-range
    boundary turns it, and a total that is not finite, into a ValueError.
    """
    order = _at_least(order, "order", 0)
    base_values = _base_powers(complex(x[0], sign * x[1]), order, normalization)
    h2pow = _float_powers(h[0], order)
    level = [list(map(mul, blade, h2pow)) for blade in zip(*map(entries, base_values))]
    for r in range(3, len(x) + 1):
        f = _f_diagonals(r, order, x)
        hpow = _float_powers(h[r - 2], order)
        if split is None:
            level = [_sums(f, 0, hpow, column) for column in level]
        else:
            a, b = split(r, f)
            upper = zip(*[times_u(r, x, 1.0, v) for v in zip(*level)])
            level = ([_sums(a, 0, hpow, column) for column in level]
                     + [_sums(b, 1, hpow, column) for column in upper])
    return [reduce(add, column, 0.0) for column in level]


@_float_value
def gf_harm_partial_sum(m: int, x, h, order: int, sign=+1,
                        normalization: str = FACTORIAL) -> complex:
    """Float partial sum of the generating series over |k| <= order."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    x, h = _check_point(m, x, h, unsafe_domain=True)
    return _partial_sum(x, h, order, sign, normalization, lambda z: [z])[0]
