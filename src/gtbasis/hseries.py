"""Truncated multivariate power series in h_2..h_m with polynomial coefficients.

An HSeries of dimension m holds, for every multi-index k = (k_2..k_m) with
|k| <= order, an exact MPoly coefficient in x_1..x_m.  Total-degree
truncation in h is used throughout.  This module supplies the three series
primitives the generating-function recurrences need: the Cauchy product, the
generalized binomial expansion of (1 + c1*h + c2*h^2)^alpha in a single h
variable, and the dimension-lift step that mirrors the substitution
h' -> h'/d_m in the closed-form recurrences.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import _at_least, _Immutable, _instance, _integer, _json_reader, _rational
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly, _check_space, radius_squared
from .scalars import binom_frac


def _h_index(k, m: int) -> tuple:
    """k as a tuple of m - 1 non-negative ints; anything else is a ValueError."""
    k = tuple(_integer(v, "an h multi-index entry") for v in k)
    if len(k) != m - 1 or any(v < 0 for v in k):
        raise ValueError(f"bad h multi-index {k} for dimension {m}")
    return k


class HSeries(_Immutable):
    """Immutable truncated series: multi-index (k_2..k_m) -> MPoly in x."""

    __slots__ = ("m", "order", "ring", "terms")

    def __init__(self, m: int, order: int, ring: str = GAUSSIAN, terms: dict | None = None):
        m, order = _at_least(m, "series dimension", 2), _at_least(order, "order", 0)
        _check_space(m, ring)
        clean = {}
        for k, poly in (terms or {}).items():
            k = _h_index(k, m)
            if sum(k) > order:
                raise ValueError(f"the term at h^{k} is beyond the order {order}")
            if not isinstance(poly, MPoly):
                raise TypeError("coefficients must be MPoly values")
            if poly.dim != m or poly.ring != ring:
                raise ValueError("coefficient polynomial dim/ring mismatch")
            if not poly.is_zero():
                clean[k] = poly
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def one(cls, m: int, order: int, ring: str = GAUSSIAN) -> "HSeries":
        m = _integer(m, "series dimension")
        return cls(m, order, ring, {(0,) * (m - 1): MPoly.constant(m, 1, ring)})

    def coefficient(self, k) -> MPoly:
        """The coefficient at h^k; an index the truncated series cannot know is a ValueError."""
        k = _h_index(k, self.m)
        if sum(k) > self.order:
            raise ValueError(f"h multi-index {k} is beyond the series order {self.order}")
        poly = self.terms.get(k)
        return MPoly.zero(self.m, self.ring) if poly is None else poly

    def _require_same(self, other: "HSeries") -> None:
        if self.m != other.m or self.ring != other.ring:
            raise ValueError("series dimension/ring mismatch")

    def __mul__(self, other):
        """Cauchy product; factor order is preserved for non-commutative rings."""
        if not isinstance(other, HSeries):
            return NotImplemented
        self._require_same(other)
        order = min(self.order, other.order)
        acc: dict = {}
        for ka, pa in self.terms.items():
            sa = sum(ka)
            for kb, pb in other.terms.items():
                if sa + sum(kb) > order:
                    continue
                k = tuple(x + y for x, y in zip(ka, kb))
                prod = pa * pb
                acc[k] = acc[k] + prod if k in acc else prod
        return HSeries(self.m, order, self.ring, acc)

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return (self.m, self.order, self.ring, self.terms) == \
               (other.m, other.order, other.ring, other.terms)

    def __hash__(self):
        return hash((self.m, self.order, self.ring, frozenset(self.terms)))

    def __repr__(self):
        return f"HSeries(m={self.m}, order={self.order}, ring={self.ring!r}, <{len(self.terms)} terms>)"

    def to_json(self) -> dict:
        entries = [{"k": list(k), "poly": self.terms[k].to_json()}
                   for k in sorted(self.terms)]
        out = {"m": self.m, "order": self.order, "terms": entries}
        if not entries:  # otherwise every coefficient polynomial names the ring
            out["ring"] = self.ring
        return out

    @_json_reader
    def from_json(cls, data: dict) -> "HSeries":
        terms = {}
        for entry in data["terms"]:
            k = tuple(entry["k"])
            if k in terms:
                raise ValueError(f"malformed {cls.__name__} document: the term at h^{k} "
                                 "is listed twice")
            if sum(k) > data["order"]:
                raise ValueError(f"malformed {cls.__name__} document: the term at h^{k} "
                                 f"is beyond the order {data['order']}")
            terms[k] = MPoly.from_json(entry["poly"])
        default = next(iter(terms.values())).ring if terms else GAUSSIAN
        return cls(data["m"], data["order"], data.get("ring", default), terms)


def _binomial_coeffs(alpha: Fraction, c1: MPoly, c2: MPoly, order: int) -> list[MPoly]:
    """Coefficient polynomials of (1 + u)^alpha, u = c1*h + c2*h^2, up to h**order.

    Entry n of the power table maps h-degree -> MPoly for the truncated u**n.
    """
    u = {hdeg: c for hdeg, c in ((1, c1), (2, c2)) if not c.is_zero()}
    powers = [{0: MPoly.constant(c1.dim, 1, c1.ring)}]
    for _ in range(order):
        nxt: dict = {}
        for ha, pa in powers[-1].items():
            for hb, pb in u.items():
                h = ha + hb
                if h > order:
                    continue
                prod = pa * pb
                nxt[h] = nxt[h] + prod if h in nxt else prod
        powers.append(nxt)
    coeffs = [MPoly.zero(c1.dim, c1.ring) for _ in range(order + 1)]
    for n, power in enumerate(powers):
        cn = binom_frac(alpha, n)
        for hdeg, poly in power.items():
            coeffs[hdeg] = coeffs[hdeg] + poly.scale(cn)
    return coeffs


def binomial_expand(alpha, c1: MPoly, c2: MPoly, var: int, order: int) -> HSeries:
    """Exact expansion of (1 + c1*h_var + c2*h_var^2)^alpha to total order in h_var.

    The h-free part of the base is the constant 1 by construction, which is
    what makes the generalized binomial series exact term by term: alpha is an
    int or a Fraction, and anything else is a ValueError.
    """
    alpha = _rational(alpha, "alpha")
    c1 = _instance(c1, MPoly, "binomial_expand: c1")
    c2 = _instance(c2, MPoly, "binomial_expand: c2")
    if c1.dim != c2.dim or c1.ring != c2.ring:
        raise ValueError("c1/c2 dimension or ring mismatch")
    m = c1.dim
    var, order = _integer(var, "the h variable index"), _at_least(order, "order", 0)
    if not 2 <= var <= m:
        raise ValueError(f"h variable index {var} out of range 2..{m}")
    terms = {}
    for j, poly in enumerate(_binomial_coeffs(alpha, c1, c2, order)):
        k = tuple(j if i == var - 2 else 0 for i in range(m - 1))
        terms[k] = poly
    return HSeries(m, order, c1.ring, terms)


def exp_series(p: MPoly, order: int) -> HSeries:
    """exp(p*h_2) truncated: coefficient of h_2^k is p^k / k!."""
    p, order = _instance(p, MPoly, "exp_series: p"), _integer(order, "order")
    acc = MPoly.constant(p.dim, 1, p.ring)
    terms = {}
    for k in range(order + 1):
        if k:
            acc = (acc * p).scale(Fraction(1, k))
        terms[(k,) + (0,) * (p.dim - 2)] = acc
    return HSeries(p.dim, order, p.ring, terms)


def power_series(p: MPoly, order: int) -> HSeries:
    """Geometric-style base sum p^k h_2^k (the plain normalization base)."""
    p, order = _instance(p, MPoly, "power_series: p"), _integer(order, "order")
    acc = MPoly.constant(p.dim, 1, p.ring)
    terms = {}
    for k in range(order + 1):
        if k:
            acc = acc * p
        terms[(k,) + (0,) * (p.dim - 2)] = acc
    return HSeries(p.dim, order, p.ring, terms)


def _underline_x_em(m: int) -> MPoly:
    """ux*e_m = sum_{j<m} x_j e_{jm} over the clifford ring; x*e_m is this minus x_m."""
    em = 1 << (m - 1)
    return MPoly._make(m, CLIFFORD, {
        (tuple(1 if i == j - 1 else 0 for i in range(m)), (1 << (j - 1)) | em): Fraction(1)
        for j in range(1, m)})


def _lift_factor(m: int, s: int, order: int, ring: str) -> list[MPoly]:
    """Coefficients of h_m^0..h_m^order of the factor a degree-s coefficient lifts by.

    With d_m = 1 - 2*x_m*h_m + h_m^2*|x|_m^2 the factor is d_m^(1-m/2-s) on the
    gaussian (harmonic) ring and (1 + x*h_m*e_m)*d_m^(-m/2-s) on the clifford
    (monogenic) ring, where x*e_m = ux*e_m - x_m.  Entry k is the embedding
    factor F^(k)_{m,s} or X^(k)_{m,s}.
    """
    c1 = MPoly.variable(m, m, ring).scale(-2)
    c2 = radius_squared(m, ring=ring)
    if ring == GAUSSIAN:
        return _binomial_coeffs(Fraction(2 - m, 2) - s, c1, c2, order)
    q = _binomial_coeffs(Fraction(-m, 2) - s, c1, c2, order)
    x_em = _underline_x_em(m) - MPoly.variable(m, m, CLIFFORD)
    return q[:1] + [q[k] + x_em * q[k - 1] for k in range(1, order + 1)]


def lift_step(series: HSeries) -> HSeries:
    """Lift a dimension-(m-1) series to dimension m at the series' order.

    Each coefficient at index k' with s = |k'| is multiplied from the left
    by the h_m expansion _lift_factor(m, s, order - s, ring), made once per
    s; the series' ring picks the harmonic or the monogenic factor.
    """
    series = _instance(series, HSeries, "lift_step: series")
    m, order, ring = series.m + 1, series.order, series.ring
    factors: dict = {}
    acc: dict = {}
    for kprev, coeff in series.terms.items():
        s = sum(kprev)
        if s not in factors:
            factors[s] = _lift_factor(m, s, order - s, ring)
        lifted = coeff.embed(m)
        for j, q in enumerate(factors[s]):
            acc[kprev + (j,)] = q * lifted
    return HSeries(m, order, ring, acc)
