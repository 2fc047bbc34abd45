"""Exact coefficient scalars: Gaussian rationals and rational multiples of powers of sqrt(pi).

All exact arithmetic in the package bottoms out in ``fractions.Fraction``.
Real rational values are stored as plain ``Fraction``; the ``GaussianRational``
constructor refuses a zero imaginary part (a ValueError), so equality and
serialization have a single canonical form.  ``make_gaussian`` builds either:
a Fraction when the imaginary part is 0.  Exact polynomials hold Fractions
only (i is the blade e12 there); a ``GaussianRational`` is what they accept
and return at their boundary.  It never meets a float: its operators return
NotImplemented for one, so the mix is a TypeError.  Its text is 'i', '-2i' or
'1/2+3/4i'; a ``PiScaled`` prints its q with str, a Fraction as '3/2'.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import _at_least, _Immutable, _integer, _json_reader, _rational


def _as_pair(value):
    """Return (re, im) as Fractions, or None if value is not exact."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    if isinstance(value, (int, Fraction)):
        return _rational(value, "a scalar"), Fraction(0)
    return None


def make_gaussian(re, im=0):
    """Canonical exact complex scalar: Fraction when im == 0, else GaussianRational.

    re and im are ints or Fractions; anything else (a float too) is a ValueError.
    """
    re = _rational(re, "the real part")
    im = _rational(im, "the imaginary part")
    if im == 0:
        return re
    return GaussianRational(re, im)


class GaussianRational(_Immutable):
    """A complex number a + b*i with rational a, b and b != 0; b == 0 is a ValueError."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re, im = _rational(re, "the real part"), _rational(im, "the imaginary part")
        if im == 0:
            raise ValueError("a GaussianRational needs a nonzero imaginary part; "
                             "a real value is a Fraction (make_gaussian)")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def conjugate(self):
        return make_gaussian(self.re, -self.im)

    def __add__(self, other):
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        return make_gaussian(self.re + pair[0], self.im + pair[1])

    __radd__ = __add__

    def __neg__(self):
        return make_gaussian(-self.re, -self.im)

    def __sub__(self, other):
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        return make_gaussian(self.re - pair[0], self.im - pair[1])

    def __rsub__(self, other):
        if _as_pair(other) is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = pair
        return make_gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        c, d = pair
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b = self.re, self.im
        return make_gaussian((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        c, d = self.re, self.im
        n = c * c + d * d
        a, b = pair
        return make_gaussian((a * c + b * d) / n, (b * c - a * d) / n)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        return (self.re, self.im) == pair

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        im = {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        if self.re == 0:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"


@lru_cache(maxsize=None, typed=True)  # typed: n = 2.0 is refused on a warm cache too
def binom_frac(alpha: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient alpha*(alpha-1)*...*(alpha-n+1)/n!.

    alpha is an int or a Fraction (errors._rational); a float is a ValueError.
    """
    alpha, n = _rational(alpha, "alpha"), _at_least(n, "n", 0)
    num = Fraction(1)
    for i in range(n):
        num *= alpha - i
    return num / math.factorial(n)


class PiScaled(_Immutable):
    """Exact value q * pi**(s/2) with rational (or Gaussian rational) q.

    Values with different pi powers never add silently: addition requires
    equal s, or one zero operand.  Zero is canonicalized to s = 0.
    """

    __slots__ = ("q", "s")

    def __init__(self, q, s: int = 0):
        s = _integer(s, "the pi power s")
        pair = _as_pair(q)
        if pair is None:
            raise TypeError("PiScaled coefficient must be exact")
        q = make_gaussian(*pair)
        if not q:
            q, s = Fraction(0), 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)

    @classmethod
    def zero(cls):
        return cls(0, 0)

    def is_zero(self) -> bool:
        return not self.q

    def __add__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.s != other.s:
            raise ValueError(f"cannot add pi powers {self.s}/2 and {other.s}/2")
        return PiScaled(self.q + other.q, self.s)

    def __neg__(self):
        return PiScaled(-self.q, self.s)

    def __sub__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.q * other.q, self.s + other.s)
        pair = _as_pair(other)
        if pair is None:
            return NotImplemented
        return PiScaled(self.q * make_gaussian(*pair), self.s)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self.q == other.q and self.s == other.s

    def __hash__(self):
        return hash((self.q, self.s))

    def __float__(self):
        if isinstance(self.q, GaussianRational):
            raise TypeError("Gaussian PiScaled has no float value; use complex()")
        return float(self.q) * math.pi ** (self.s / 2)

    def __complex__(self):
        return complex(self.q) * math.pi ** (self.s / 2)

    def __gt__(self, other):
        if other == 0:
            return not isinstance(self.q, GaussianRational) and self.q > 0
        return NotImplemented

    def __repr__(self):
        if self.s == 0:
            return f"PiScaled({self.q})"
        return f"PiScaled({self.q}*pi^({self.s}/2))"

    def __str__(self):
        if self.s == 0:
            return str(self.q)
        power = str(Fraction(self.s, 2))
        suffix = "pi" if power == "1" else f"pi^({power})"
        return f"{self.q}*{suffix}"

    def to_json(self) -> dict:
        pair = _as_pair(self.q)
        out = {"q_num": pair[0].numerator, "q_den": pair[0].denominator,
               "sqrt_pi_pow": self.s}
        if pair[1]:
            out["q_inum"] = pair[1].numerator
            out["q_iden"] = pair[1].denominator
        return out

    @_json_reader
    def from_json(cls, data: dict) -> "PiScaled":
        re = Fraction(data["q_num"], data["q_den"])
        im = Fraction(data.get("q_inum", 0), data.get("q_iden", 1))
        return cls(make_gaussian(re, im), data["sqrt_pi_pow"])
