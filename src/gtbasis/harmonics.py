"""Standard orthogonal basis of spherical harmonics and its generating function.

The basis in dimension m is indexed by k = (k_2..k_m): a complex base
polynomial (x_1 +/- i*x_2)^{k_2} (divided by k_2! in the default
normalization) times one embedding factor per extra dimension,

    F^(k)_{r,j}(x) = |x|_r^k * C^{r/2+j-1}_k(x_r / |x|_r),

which is a genuine polynomial thanks to the parity of the Gegenbauer
polynomials.  The generating function H_m(x, h) = sum_k harm_k(x) h^k has a
closed form obtained by the dimension recurrence

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
from functools import lru_cache

from .clifford import E12
from .errors import DomainError, SingularityError
from .gegenbauer import gegenbauer_poly
from .hseries import HSeries, exp_series, lift_step, power_series
from .mvpoly import GAUSSIAN, MPoly, radius_squared

FACTORIAL = "factorial"
PLAIN = "plain"

_NORMS = (FACTORIAL, PLAIN)

FLOAT_OVERFLOW = "the generating-function value overflows the float range"


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
    """All tuples of `parts` non-negative ints with sum <= total, lexicographic."""
    if parts == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in iter_multi_indices(parts - 1, total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class _Index:
    """What every basis label shares: the multi-index (k_2..k_m) and its checks.

    Subclasses add their own fields after k, including `normalization`.
    """

    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        _check_norm(self.normalization)
        if len(self.k) < 1:
            raise ValueError("index needs at least the k_2 entry (m >= 2)")
        if any(v < 0 for v in self.k):
            raise ValueError("index entries must be non-negative")

    @property
    def m(self) -> int:
        return len(self.k) + 1

    def degree(self) -> int:
        return sum(self.k)

    def kstar(self, r: int) -> int:
        """Partial sum k_2 + ... + k_r."""
        return sum(self.k[: r - 1])


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
    return all(abs(v) <= bound for v, bound in zip(h[1:], _box_bounds(m)))


@lru_cache(maxsize=None)
def embedding_F(m: int, j: int, k: int) -> MPoly:
    """Embedding factor F^(k)_{m,j} as an exact polynomial in x_1..x_m.

    k = -1 yields the zero polynomial (the convention the monogenic
    embedding factors rely on).
    """
    if m < 3:
        raise ValueError("embedding factors need m >= 3")
    if j < 0:
        raise ValueError("j must be non-negative")
    if k == -1:
        return MPoly.zero(m)
    if k < -1:
        raise ValueError("k must be >= -1")
    nu = Fraction(m, 2) + j - 1
    g = gegenbauer_poly(nu, k)
    xm = MPoly.variable(m, m)
    r2 = radius_squared(m)
    r2_pows = {0: MPoly.constant(m, 1)}
    out = MPoly.zero(m)
    for i, c in enumerate(g.coeffs):
        if c == 0:
            continue
        p = (k - i) // 2
        if p not in r2_pows:
            r2_pows[p] = r2 ** p
        out = out + (xm ** i * r2_pows[p]).scale(c)
    return out


def _base2(sign: int, ring: str) -> MPoly:
    """x_1 + sign*e12*x_2: the harmonic base x_1 +/- i*x_2 (gaussian ring, e12 = i)
    and, with sign -1, the monogenic base x_1 - e12*x_2 (clifford ring)."""
    return MPoly._make(2, ring, {((1, 0), 0): Fraction(1), ((0, 1), E12): Fraction(sign)})


def _basis_product(idx, base: MPoly, factor) -> MPoly:
    """Basis polynomial of idx: factor_m * ... * factor_3 * base^{k_2}.

    The base power is divided by k_2! in the factorial normalization, and
    factor(r, k_2 + ... + k_{r-1}, k_r) is the dimension-r embedding factor.
    Each factor multiplies from the left: the outermost dimension is leftmost.
    """
    m = idx.m
    poly = base ** idx.k[0]
    if idx.normalization == FACTORIAL:
        poly = poly.scale(Fraction(1, math.factorial(idx.k[0])))
    poly = poly.embed(m)
    for r in range(3, m + 1):
        poly = factor(r, idx.kstar(r - 1), idx.k[r - 2]).embed(m) * poly
    return poly


def harm_basis(idx: BasisIndex) -> MPoly:
    """The spherical harmonic labelled by idx; homogeneous of degree |k| and harmonic."""
    return _basis_product(idx, _base2(idx.sign, GAUSSIAN), embedding_F)


def real_basis(idx: BasisIndex) -> tuple[MPoly, MPoly]:
    """Real and imaginary parts of the sign=+ harmonic (a real orthogonal basis)."""
    plus = harm_basis(BasisIndex(idx.k, +1, idx.normalization))
    return plus.real_part(), plus.imag_part()


def enumerate_harm_indices(m: int, deg_max: int,
                           normalization: str = FACTORIAL) -> list[BasisIndex]:
    """All basis labels with |k| <= deg_max, deduplicated: k_2 = 0 appears with + only."""
    _check_norm(normalization)
    out = []
    for k in iter_multi_indices(m - 1, deg_max):
        out.append(BasisIndex(k, +1, normalization))
        if k[0] > 0:
            out.append(BasisIndex(k, -1, normalization))
    return out


# -- float evaluation ------------------------------------------------------


def _check_point(m: int, x, h, unsafe_domain: bool):
    if m < 2:
        raise ValueError("dimension m must be at least 2")
    x = [float(v) for v in x]
    h = [float(v) for v in h]
    if len(x) != m:
        raise ValueError(f"x needs {m} coordinates")
    if len(h) != m - 1:
        raise ValueError(f"h needs {m - 1} coordinates")
    if not all(map(math.isfinite, x + h)):
        raise ValueError("x and h must be finite")
    if not unsafe_domain:
        if sum(v * v for v in x) > 1.0 + 1e-12:
            raise DomainError("point lies outside the closed unit ball")
        if not _in_box(m, h):
            raise DomainError("h lies outside the certified convergence box")
    return x, h


def _descend(x, h):
    """The dimension recursion from m = len(x) down to 2.

    Returns the levels [(r, d_r, h_r)] for r = m..3, where h_r is the already
    rescaled h entry and d_r = 1 - 2*x_r*h_r + h_r^2*|x|_r^2 > 0, and the final
    rescaled h_2.  Each level divides the remaining h entries by d_r.  A kernel
    that is not finite (|x|^2 or h_r^2 overflowed) is a FLOAT_OVERFLOW ValueError.
    """
    levels = []
    for r in range(len(x), 2, -1):
        r2 = sum(v * v for v in x[:r])
        d = 1.0 - 2.0 * x[r - 1] * h[r - 2] + h[r - 2] * h[r - 2] * r2
        if not math.isfinite(d):
            raise ValueError(FLOAT_OVERFLOW)
        if d <= 0.0:
            raise SingularityError(f"kernel d_{r} = {d} is not positive")
        levels.append((r, d, h[r - 2]))
        h = [v / d for v in h[: r - 2]]
    return levels, h[0]


def _plain_denominator(x1: float, x2: float, h2: float) -> float:
    """1 - 2*x_1*h_2 + h_2^2*(x_1^2 + x_2^2), the plain base's denominator."""
    denom = 1.0 - 2.0 * x1 * h2 + h2 * h2 * (x1 * x1 + x2 * x2)
    if not math.isfinite(denom):
        raise ValueError(FLOAT_OVERFLOW)
    if denom <= 0.0:
        raise SingularityError("plain base denominator vanished")
    return denom


def _base2_value(x1: float, x2: float, h2: float, sign: int,
                 normalization: str) -> complex:
    z = complex(x1, sign * x2)
    if normalization == FACTORIAL:
        return cmath.exp(z * h2)
    return (1.0 - z.conjugate() * h2) / _plain_denominator(x1, x2, h2)


def gf_harm_closed(m: int, x, h, sign=+1, normalization: str = FACTORIAL,
                   unsafe_domain: bool = False) -> complex:
    """Closed-form value of the generating function by downward dimension recursion."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    x, h = _check_point(m, x, h, unsafe_domain)
    levels, h2 = _descend(x, h)
    try:
        value = complex(1.0)
        for r, d, _ in levels:
            value *= d ** (1.0 - r / 2.0)
        value *= _base2_value(x[0], x[1], h2, sign, normalization)
    except OverflowError as exc:
        raise ValueError(FLOAT_OVERFLOW) from exc
    if not cmath.isfinite(value):
        raise ValueError(FLOAT_OVERFLOW)
    return value


def gf_harm_closed_m3(x, h, sign=+1, normalization: str = FACTORIAL,
                      unsafe_domain: bool = False) -> complex:
    """Literal m = 3 closed formula: d^(-1/2) * exp((x_1 +/- i*x_2) h_2 / d)."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    x, h = _check_point(3, x, h, unsafe_domain)
    x1, x2, x3 = x
    h2, h3 = h
    d = 1.0 - 2.0 * x3 * h3 + h3 * h3 * (x1 * x1 + x2 * x2 + x3 * x3)
    if not math.isfinite(d):
        raise ValueError(FLOAT_OVERFLOW)
    if d <= 0.0:
        raise SingularityError(f"kernel d_3 = {d} is not positive")
    if normalization == FACTORIAL:
        try:
            value = d ** -0.5 * cmath.exp(complex(x1, sign * x2) * h2 / d)
        except OverflowError as exc:
            raise ValueError(FLOAT_OVERFLOW) from exc
    else:
        g = h2 / d
        denom = 1.0 - 2.0 * x1 * g + g * g * (x1 * x1 + x2 * x2)
        if not math.isfinite(denom):
            raise ValueError(FLOAT_OVERFLOW)
        if denom <= 0.0:
            raise SingularityError("plain base denominator vanished")
        value = d ** -0.5 * (1.0 - complex(x1, -sign * x2) * g) / denom
    if not cmath.isfinite(value):
        raise ValueError(FLOAT_OVERFLOW)
    return value


def _gf_series(base: MPoly, m: int, order: int, normalization: str) -> HSeries:
    """exp(base*h_2) or the plain power series, lifted to dimension m."""
    if m < 2:
        raise ValueError("dimension must be at least 2")
    if normalization == FACTORIAL:
        series = exp_series(base, order)
    else:
        series = power_series(base, order)
    for _ in range(3, m + 1):
        series = lift_step(series, order)
    return series


def gf_harm_series(m: int, order: int, sign=+1,
                   normalization: str = FACTORIAL) -> HSeries:
    """Exact truncated generating series; coefficient at k equals harm_basis(k)."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    return _gf_series(_base2(sign, GAUSSIAN), m, order, normalization)


def _f_row(m: int, j: int, k_max: int, x) -> list:
    """Float values [F^(0)_{m,j}, ..., F^(k_max)_{m,j}] at a point, in one pass.

    The homogenized Gegenbauer recurrence, nu = m/2 + j - 1:
    n*F_n = 2*(n+nu-1)*x_m*F_{n-1} - (n+2*nu-2)*|x|_m^2*F_{n-2},
    with F_0 = 1 and F_1 = 2*nu*x_m.  Only the first m coordinates of x are used.
    """
    nu = m / 2.0 + j - 1.0
    r2 = sum(float(x[i]) ** 2 for i in range(m))
    xm = float(x[m - 1])
    prev, cur = 0.0, 1.0
    row = [cur]
    for n in range(1, k_max + 1):
        prev, cur = cur, (2.0 * (n + nu - 1.0) * xm * cur
                          - (n + 2.0 * nu - 2.0) * r2 * prev) / n
        row.append(cur)
    return row


def _f_table(m: int, order: int, x) -> list:
    """Rows table[j][k] = F^(k)_{m,j}(x) for j + k <= order."""
    return [_f_row(m, j, order - j, x) for j in range(order + 1)]


def embedding_f_value(m: int, j: int, k: int, x) -> float:
    """Float value of F^(k)_{m,j} at a point (first m coordinates of x are used)."""
    if m < 3:
        raise ValueError("embedding factors need m >= 3")
    if j < 0:
        raise ValueError("j must be non-negative")
    if k < -1:
        raise ValueError("k must be >= -1")
    if k == -1:
        return 0.0
    return _f_row(m, j, k, x)[k]


def _base_powers(base, one, order: int, normalization: str) -> list:
    """Float values base^{k_2} (over k_2! in the factorial normalization), k_2 <= order."""
    values = [one]
    for k2 in range(1, order + 1):
        nxt = values[-1] * base
        if normalization == FACTORIAL:
            nxt = nxt * (1.0 / k2)
        values.append(nxt)
    return values


def _harm_split(r: int, table: list, j: int, k: int) -> tuple:
    """The harmonic factor F^(k)_{r,j} as a + b*U_r: b = 0."""
    return table[j][k], 0.0


def _partial_sum(m: int, x, h, order: int, base_values: list, split,
                 times_u=None) -> list:
    """Sum over |k| <= order of factor_m ... factor_3 * base_values[k_2] * h^k.

    Values are dense coefficient lists: one complex entry for a harmonic
    value, 2^m blade coefficients for a multivector.  Every embedding factor
    is split as a + b*U_r, where a and b are scalars and U_r is a fixed
    element per dimension; split(r, table, j, k_r) returns (a, b) from the
    dimension-r table of F values (_f_table), and times_u(r, value) is the
    left product U_r * value.  The harmonic sum has b = 0 and no U_r.

    Since a factor depends on the lower indices only through
    j = k_2 + ... + k_{r-1}, the sum is built one dimension at a time by
    total degree: level[s] is the dimension-r sum over k_2 + ... + k_r = s,
    V[j] = U_r * level_{r-1}[j], and

        level_r[s] = sum_{k_r <= s} (a * level_{r-1}[j] + b * V[j]) * h_r^{k_r},  j = s - k_r.

    So each dimension costs one F table and order + 1 products by U_r.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    width = len(base_values[0])
    level = [[c * h[0] ** s for c in v] for s, v in enumerate(base_values)]
    for r in range(3, m + 1):
        table = _f_table(r, order, x)
        hpow = [h[r - 2] ** kr for kr in range(order + 1)]
        products = None if times_u is None else [times_u(r, v) for v in level]
        nxt = []
        for s in range(order + 1):
            acc = [0.0] * width
            for kr in range(s + 1):
                j = s - kr
                a, b = split(r, table, j, kr)
                hk = hpow[kr]
                if b:
                    acc = [t + (a * c + b * u) * hk
                           for t, c, u in zip(acc, level[j], products[j])]
                else:
                    acc = [t + a * c * hk for t, c in zip(acc, level[j])]
            nxt.append(acc)
        level = nxt
    total = [0.0] * width
    for v in level:
        total = [t + c for t, c in zip(total, v)]
    return total


def gf_harm_partial_sum(m: int, x, h, order: int, sign=+1,
                        normalization: str = FACTORIAL) -> complex:
    """Float partial sum of the generating series over |k| <= order."""
    sign = _norm_sign(sign)
    _check_norm(normalization)
    x, h = _check_point(m, x, h, unsafe_domain=True)
    base_values = _base_powers(complex(x[0], sign * x[1]), complex(1.0), order,
                               normalization)
    return _partial_sum(m, x, h, order, [[v] for v in base_values], _harm_split)[0]
