"""Exact integrals of monomials over the unit ball and L^2 inner products.

The classical formula

    integral_{B_m} x^alpha dx = prod_i Gamma((alpha_i+1)/2) / Gamma((|alpha|+m+2)/2)

holds when every alpha_i is even and the integral vanishes otherwise.  For
alpha = 2a, Gamma(a_i + 1/2) = sqrt(pi) (2a_i)! / (4^a_i a_i!) turns it into

    integral_{B_m} x^alpha dx = N_alpha * S(m, |alpha|) * pi^(pi_power(m)/2)

with two factors:

* the integer moment N_alpha = prod_i (2a_i)!/a_i!, which depends on alpha
  alone;
* the rational scale S(m, d) = 1 / (2^d g), where gamma_half(d + m + 2),
  that is Gamma((d+m+2)/2), is g sqrt(pi)^(m mod 2); it depends only on the
  dimension and the total degree d = |alpha|.

So every nonzero integral in dimension m carries the same power of sqrt(pi),
pi_power(m), and the inner products sum integer weights times N_alpha per
(blade, total degree), with one multiplication by S per total degree.
Orthogonality of basis polynomials thus reduces to exact-zero assertions
with no quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .clifford import Multivector, blade_sign, conjugation_sign
from .errors import _at_least
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly, _value
from .scalars import PiScaled


def gamma_half(n: int) -> PiScaled:
    """Gamma(n/2) for integer n >= 1, exactly: rational times sqrt(pi)^(n mod 2)."""
    n = _at_least(n, "gamma_half's argument", 1)
    if n % 2 == 0:
        return PiScaled(math.factorial(n // 2 - 1), 0)
    q = Fraction(1)
    for odd in range(n - 2, 0, -2):
        q *= odd
    return PiScaled(q / 2 ** ((n - 1) // 2), 1)


def pi_power(m: int) -> int:
    """The sqrt(pi) exponent shared by all nonzero ball integrals in dimension m >= 1."""
    m = _at_least(m, "the dimension m", 1)
    return m if m % 2 == 0 else m - 1


@lru_cache(maxsize=1 << 16)
def _moment(alpha: tuple) -> int:
    """N_alpha = prod_i alpha_i! / (alpha_i/2)! for an all-even exponent vector."""
    n = 1
    for a in alpha:
        n *= math.factorial(a) // math.factorial(a // 2)
    return n


@lru_cache(maxsize=None)
def _degree_scale(m: int, degree: int) -> Fraction:
    """S(m, degree): the rational factor shared by every all-even alpha with |alpha| = degree."""
    return Fraction(1, 2 ** degree) / gamma_half(degree + m + 2).q


@lru_cache(maxsize=None)
def _ball_integral_cached(m: int, alpha: tuple) -> PiScaled:
    if any(a % 2 for a in alpha):
        return PiScaled.zero()
    return PiScaled(_moment(alpha) * _degree_scale(m, sum(alpha)), pi_power(m))


def monomial_ball_integral(m: int, alpha) -> PiScaled:
    """Exact integral of x_1^a1 ... x_m^am over the unit ball in R^m."""
    m = _at_least(m, "the dimension m", 1)
    try:
        alpha = tuple(_at_least(a, "an exponent", 0) for a in alpha)
    except TypeError:
        raise ValueError("the exponents must be a sequence of integers") from None
    if len(alpha) != m:
        raise ValueError(f"exponent vector needs {m} entries")
    return _ball_integral_cached(m, alpha)


def _index(poly: MPoly) -> tuple:
    """(poly's own field width, width -> its classes at that width), made once and kept on poly.

    The own width leaves the top bit of every field clear: each of poly's
    exponents is below 2^(width-1).  At the larger of two operands' own
    widths every exponent sum of a term pair is below 2^width, so no field
    carries into the next.
    """
    try:
        return poly._parity_classes
    except AttributeError:
        top = max((e for exps, _ in poly.num for e in exps), default=0)
        index = (top.bit_length() + 1, {})
        object.__setattr__(poly, "_parity_classes", index)
        return index


def _classes(poly: MPoly, width: int) -> dict:
    """poly's terms as parity -> blade -> [(packed exps, numerator)], built once per width.

    The packed exps is sum_i exps[i] << (i * width), with width at least
    poly's own width; an index is only ever read at the width it was built at.
    """
    by_width = _index(poly)[1]
    classes = by_width.get(width)
    if classes is None:
        classes = by_width[width] = {}
        shifts = range(0, poly.dim * width, width)
        for (exps, blade), n in poly.num.items():
            parity = tuple(e & 1 for e in exps)
            packed = sum(e << s for e, s in zip(exps, shifts))
            classes.setdefault(parity, {}).setdefault(blade, []).append((packed, n))
    return classes


def _ball_pairing(p: MPoly, q: MPoly, ring: str, caller: str, scalar_only: bool = False) -> dict:
    """Blade -> sum over term pairs of conj(a) * b * (rational part of the ball integral).

    A pair integrates to zero unless its exponents have the same parity in
    every variable, so only the parity classes p and q share meet, and two
    polynomials that share none do no arithmetic.  The classes are grouped
    by blade once per polynomial (``_classes``), so a sign is read once per
    blade pair; conj is Clifford conjugation, i -> -i on the gaussian e12.
    The caller attaches pi_power(m), the sqrt(pi) power of every nonzero
    integral in dimension m.

    Exponent vectors are packed into ints, one field per variable, at the
    larger of the two operands' own widths, so the key of a term pair is one
    int add: the product's blade sits in the bits above the fields.  Integer
    weights conj(na) * nb * sign are summed per key; only a nonzero weight is
    unpacked into its exponent vector alpha and multiplied by N_alpha, per
    (blade, total degree): one fraction per (blade, total degree), one
    division per blade.

    With scalar_only, only the scalar blade is computed: conj(e_A) e_B has a
    scalar part only when A = B.
    """
    if not (isinstance(p, MPoly) and isinstance(q, MPoly)):
        raise TypeError(f"{caller} needs MPoly operands")
    if p.ring != ring or q.ring != ring:
        raise ValueError(f"{caller} needs {ring}-ring polynomials")
    if p.dim != q.dim:
        raise ValueError(f"{caller}: dimension mismatch {p.dim} != {q.dim}")
    m = p.dim
    (wp, by_p), (wq, by_q) = _index(p), _index(q)
    width = max(wp, wq)
    cp = by_p.get(width) or _classes(p, width)
    cq = by_q.get(width) or _classes(q, width)
    blade_shift = m * width  # the blade sits above every field
    weights: dict = {}
    get = weights.get
    for parity in cp.keys() & cq.keys():
        group = cq[parity]
        for ba, terms_a in cp[parity].items():
            sign = conjugation_sign(ba)
            blade_terms = [(ba, group.get(ba, ()))] if scalar_only else group.items()
            for bb, terms_b in blade_terms:
                blade = (ba ^ bb) << blade_shift
                positive = sign * blade_sign(ba, bb) > 0
                for ea, na in terms_a:
                    w = na if positive else -na
                    base = ea + blade
                    for eb, nb in terms_b:
                        key = base + eb
                        weights[key] = get(key, 0) + w * nb
    if not weights:  # no term pair met
        return {}
    # every alpha here is all-even, as both exponent vectors share a parity
    mask = (1 << width) - 1
    shifts = range(0, blade_shift, width)
    sums: dict = {}
    for key, w in weights.items():
        if w:
            alpha = tuple([key >> s & mask for s in shifts])
            skey = (key >> blade_shift, sum(alpha))
            sums[skey] = sums.get(skey, 0) + w * _moment(alpha)
    acc: dict = {}
    for (blade, degree), n in sums.items():
        acc[blade] = acc.get(blade, 0) + n * _degree_scale(m, degree)
    den = p.den * q.den
    return {blade: c / den for blade, c in acc.items()}


_ZERO = PiScaled.zero()  # of a pairing with nothing to sum, shared: PiScaled is immutable


def inner_harm(p: MPoly, q: MPoly) -> PiScaled:
    """L^2(B_m) inner product of complex polynomials: integral of conj(p)*q.

    Conjugate-linear in p, linear in q; the result is an exact (Gaussian)
    rational multiple of the dimension's pi power.
    """
    acc = _ball_pairing(p, q, GAUSSIAN, "inner_harm")
    if not acc:
        return _ZERO
    return PiScaled(_value(p.dim, GAUSSIAN, acc), pi_power(p.dim))


def inner_mon(p: MPoly, q: MPoly) -> PiScaled:
    """Scalar part of the Clifford inner product: integral of scalar(conj(p)*q)."""
    acc = _ball_pairing(p, q, CLIFFORD, "inner_mon", scalar_only=True)
    if not acc:
        return _ZERO
    return PiScaled(acc.get(0, 0), pi_power(p.dim))


def inner_mon_full(p: MPoly, q: MPoly) -> tuple[Multivector, int]:
    """Full Clifford-valued inner product over the ball.

    Returns (value, s): an exact multivector of rational coefficients and
    the sqrt(pi) exponent s, meaning value * pi^(s/2).
    """
    acc = _ball_pairing(p, q, CLIFFORD, "inner_mon_full")
    return Multivector(p.dim, acc), pi_power(p.dim)
