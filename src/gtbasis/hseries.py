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

from .mvpoly import CLIFFORD, GAUSSIAN, MPoly, _check_space, radius_squared
from .scalars import binom_frac


class HSeries:
    """Immutable truncated series: multi-index (k_2..k_m) -> MPoly in x."""

    __slots__ = ("m", "order", "ring", "terms")

    def __init__(self, m: int, order: int, ring: str = GAUSSIAN, terms: dict | None = None):
        if m < 2:
            raise ValueError("series dimension must be at least 2")
        if order < 0:
            raise ValueError("order must be non-negative")
        _check_space(m, ring)
        clean = {}
        for k, poly in (terms or {}).items():
            k = tuple(int(v) for v in k)
            if len(k) != m - 1 or any(v < 0 for v in k):
                raise ValueError(f"bad h multi-index {k} for dimension {m}")
            if sum(k) > order:
                continue
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

    def __setattr__(self, name, value):
        raise AttributeError("HSeries is immutable")

    @classmethod
    def one(cls, m: int, order: int, ring: str = GAUSSIAN) -> "HSeries":
        k0 = (0,) * (m - 1)
        return cls(m, order, ring, {k0: MPoly.constant(m, 1, ring)})

    def coefficient(self, k) -> MPoly:
        k = tuple(k)
        return self.terms.get(k, MPoly.zero(self.m, self.ring))

    def truncate(self, order: int) -> "HSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return HSeries(self.m, order, self.ring,
                       {k: p for k, p in self.terms.items() if sum(k) <= order})

    def _require_same(self, other: "HSeries") -> None:
        if self.m != other.m or self.ring != other.ring:
            raise ValueError("series dimension/ring mismatch")

    def __add__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        self._require_same(other)
        order = min(self.order, other.order)
        terms = {k: p for k, p in self.terms.items() if sum(k) <= order}
        for k, poly in other.terms.items():
            if sum(k) > order:
                continue
            if k in terms:
                terms[k] = terms[k] + poly
            else:
                terms[k] = poly
        return HSeries(self.m, order, self.ring, terms)

    def __neg__(self):
        return HSeries(self.m, self.order, self.ring,
                       {k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Cauchy product; factor order is preserved for non-commutative rings."""
        if not isinstance(other, HSeries):
            return NotImplemented
        self._require_same(other)
        order = min(self.order, other.order)
        acc: dict = {}
        for ka, pa in self.terms.items():
            sa = sum(ka)
            if sa > order:
                continue
            for kb, pb in other.terms.items():
                if sa + sum(kb) > order:
                    continue
                k = tuple(x + y for x, y in zip(ka, kb))
                prod = pa * pb
                if k in acc:
                    acc[k] = acc[k] + prod
                else:
                    acc[k] = prod
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

    @classmethod
    def from_json(cls, data: dict) -> "HSeries":
        terms = {tuple(entry["k"]): MPoly.from_json(entry["poly"])
                 for entry in data["terms"]}
        default = next(iter(terms.values())).ring if terms else GAUSSIAN
        return cls(data["m"], data["order"], data.get("ring", default), terms)


def _u_powers(c1: MPoly, c2: MPoly, order: int) -> list[dict]:
    """Truncated powers of u = c1*h + c2*h^2; entry n maps h-degree -> MPoly."""
    ring = c1.ring
    u = {}
    if not c1.is_zero():
        u[1] = c1
    if not c2.is_zero():
        u[2] = c2
    powers = [{0: MPoly.constant(c1.dim, 1, ring)}]
    for _ in range(order):
        prev = powers[-1]
        nxt: dict = {}
        for ha, pa in prev.items():
            for hb, pb in u.items():
                h = ha + hb
                if h > order:
                    continue
                prod = pa * pb
                if h in nxt:
                    nxt[h] = nxt[h] + prod
                else:
                    nxt[h] = prod
        powers.append(nxt)
    return powers


def _binomial_coeffs(alpha: Fraction, upowers: list[dict], order: int,
                     dim: int, ring: str) -> list[MPoly]:
    """Coefficient polynomials of (1 + u)^alpha up to h**order from precomputed powers."""
    coeffs = [MPoly.zero(dim, ring) for _ in range(order + 1)]
    for n in range(order + 1):
        cn = binom_frac(Fraction(alpha), n)
        if cn == 0:
            continue
        for hdeg, poly in upowers[n].items():
            if hdeg <= order:
                coeffs[hdeg] = coeffs[hdeg] + poly.scale(cn)
    return coeffs


def binomial_expand(alpha, c1: MPoly, c2: MPoly, var: int, order: int) -> HSeries:
    """Exact expansion of (1 + c1*h_var + c2*h_var^2)^alpha to total order in h_var.

    The h-free part of the base is the constant 1 by construction, which is
    what makes the generalized binomial series exact term by term.
    """
    if c1.dim != c2.dim or c1.ring != c2.ring:
        raise ValueError("c1/c2 dimension or ring mismatch")
    m = c1.dim
    if not 2 <= var <= m:
        raise ValueError(f"h variable index {var} out of range 2..{m}")
    upowers = _u_powers(c1, c2, order)
    coeffs = _binomial_coeffs(Fraction(alpha), upowers, order, m, c1.ring)
    terms = {}
    for j, poly in enumerate(coeffs):
        k = tuple(j if i == var - 2 else 0 for i in range(m - 1))
        terms[k] = poly
    return HSeries(m, order, c1.ring, terms)


def exp_series(p: MPoly, order: int) -> HSeries:
    """exp(p*h_2) truncated: coefficient of h_2^k is p^k / k!."""
    acc = MPoly.constant(p.dim, 1, p.ring)
    terms = {}
    for k in range(order + 1):
        if k:
            acc = (acc * p).scale(Fraction(1, k))
        terms[(k,) + (0,) * (p.dim - 2)] = acc
    return HSeries(p.dim, order, p.ring, terms)


def power_series(p: MPoly, order: int) -> HSeries:
    """Geometric-style base sum p^k h_2^k (the plain normalization base)."""
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


def _monogenic_prefactor(m: int, order: int) -> HSeries:
    """The two-term series 1 + x*h_m*e_m, with x*e_m = ux*e_m - x_m."""
    k0 = (0,) * (m - 1)
    k1 = (0,) * (m - 2) + (1,)
    return HSeries(m, order, CLIFFORD, {
        k0: MPoly.constant(m, 1, CLIFFORD),
        k1: _underline_x_em(m) - MPoly.variable(m, m, CLIFFORD),
    })


def lift_step(series: HSeries, order: int) -> HSeries:
    """Lift a dimension-(m-1) series to dimension m.

    Each coefficient at index k' with s = |k'| is multiplied by the
    single-variable expansion of d_m^(alpha - s), where
    d_m = 1 - 2*x_m*h_m + h_m^2*|x|_m^2.  The series' ring picks the lift:
    a gaussian (harmonic) series has alpha = 1 - m/2; a clifford
    (monogenic) one has alpha = -m/2, and its result is then
    left-multiplied by the two-term series 1 + x*h_m*e_m.
    """
    ring = series.ring
    m = series.m + 1
    alpha = Fraction(2 - m, 2) if ring == GAUSSIAN else Fraction(-m, 2)
    c1 = MPoly.variable(m, m, ring).scale(-2)
    c2 = radius_squared(m, ring=ring)
    upowers = _u_powers(c1, c2, order)
    acc: dict = {}
    for kprev, coeff in series.terms.items():
        s = sum(kprev)
        if s > order:
            continue
        budget = order - s
        expansion = _binomial_coeffs(alpha - s, upowers, budget, m, ring)
        lifted = coeff.embed(m)
        for j, q in enumerate(expansion):
            if q.is_zero():
                continue
            k = kprev + (j,)
            prod = q * lifted
            if k in acc:
                acc[k] = acc[k] + prod
            else:
                acc[k] = prod
    out = HSeries(m, order, ring, acc)
    if ring == CLIFFORD:
        out = _monogenic_prefactor(m, order) * out
    return out
