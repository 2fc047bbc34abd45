"""Multivariate polynomials in x_1..x_m over exact coefficient rings.

A polynomial is one sparse map (exponents, blade) -> integer numerator over
one positive denominator shared by every term, kept canonical: no zero
numerator, and the gcd of the denominator and all numerators is 1.  So
equality and hashing compare structure only, and products, sums and
derivatives run on integers.  Fractions appear only at the boundary: the
constructors, ``terms`` (a read-only Fraction view), ``coeff``, ``eval``,
text and JSON.

The blade is a bitmask over the generators of R_{0,m}, with the same m as
the variables.  Two rings share this representation: ``clifford``
polynomials may use every blade, ``gaussian`` ones store a + b*i as a on
blade 0 and b on E12 = e_1 e_2 (e12^2 = -1, and Clifford conjugation of e12
is i -> -i).  GaussianRational is only the boundary type of input, ``coeff``,
``eval``, text and JSON.  Variables are real and commute with everything; in
the Clifford ring only the blades fail to commute, so products keep factor
order.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add

from .clifford import E12, Multivector, _sum_text, blade_sign, conjugation_sign
from .errors import _at_least, _Immutable, _integer, _json_reader
from .scalars import GaussianRational, _as_pair, make_gaussian

GAUSSIAN = "gaussian"
CLIFFORD = "clifford"

_RINGS = (GAUSSIAN, CLIFFORD)
_EXACT = (int, Fraction, GaussianRational)


def _check_space(dim: int, ring: str) -> int:
    """dim as an int; a non-integral or non-positive dimension or an unknown ring is a ValueError."""
    dim = _at_least(dim, "the dimension", 1)
    if ring not in _RINGS:
        raise ValueError(f"unknown ring {ring!r}")
    return dim


def _check_exps(exps, dim: int) -> tuple:
    exps = tuple(_integer(e, "an exponent") for e in exps)
    if len(exps) != dim or any(e < 0 for e in exps):
        raise ValueError(f"bad exponent vector {exps} for dim {dim}")
    return exps


def _blades(coeff, dim: int, ring: str):
    """The (blade, Fraction) pairs of a caller's coefficient; a + b*i is a on 0, b on E12."""
    if isinstance(coeff, Multivector):
        if ring != CLIFFORD:
            raise TypeError("Multivector coefficients need the clifford ring")
        if coeff.dim != dim:
            raise ValueError(f"coefficient algebra dim {coeff.dim} != {dim}")
        if not coeff.is_exact():
            raise ValueError("polynomial coefficients must be exact")
        return coeff.terms.items()
    if not isinstance(coeff, _EXACT):
        raise TypeError("coefficients must be exact scalars or Multivectors")
    if not isinstance(coeff, GaussianRational):
        return ((0, Fraction(coeff)),)
    if ring != GAUSSIAN:
        raise TypeError("clifford-ring coefficients must be rational")
    return ((0, coeff.re), (E12, coeff.im))


def _value(dim: int, ring: str, blades: dict, zero=Fraction(0)):
    """The coefficient a {blade: value} map stands for: a Multivector of R_{0,dim} in the
    clifford ring; in the gaussian one a + b*i, a on blade 0 (zero when absent) and b on E12,
    exact through make_gaussian, a float or a complex when the values are floats."""
    if ring == CLIFFORD:
        return Multivector(dim, blades)
    re, im = blades.get(0, zero), blades.get(E12)
    if im is None:
        return re
    return complex(re, im) if isinstance(im, float) else make_gaussian(re, im)


def _accumulate(acc: dict, key, coeff) -> None:
    acc[key] = acc[key] + coeff if key in acc else coeff


@lru_cache(maxsize=1 << 16)
def _lowered(exps: tuple) -> dict:
    """i -> (lowered, e) for each variable x_i of degree e >= 1: d/dx_i x^exps = e x^lowered."""
    return {i: (exps[:i] + (e - 1,) + exps[i + 1:], e) for i, e in enumerate(exps) if e}


@lru_cache(maxsize=1 << 16)
def _lowered_twice(exps: tuple) -> tuple:
    """(lowered, e(e - 1)) for each x_i of degree e >= 2: d^2/dx_i^2 x^exps = e(e - 1) x^lowered."""
    return tuple((exps[:i] + (e - 2,) + exps[i + 1:], e * (e - 1))
                 for i, e in enumerate(exps) if e > 1)


@lru_cache(maxsize=1 << 16)
def _left_generators(dim: int, blade: int) -> tuple:
    """Entry i: (the blade of e_i e_blade, whether its sign is +1), for e_i in R_{0,dim}."""
    return tuple((blade ^ 1 << i, blade_sign(1 << i, blade) > 0) for i in range(dim))


def _fill(poly, dim: int, ring: str, num: dict, den: int):
    """Set the slots of poly from numerators and a denominator already canonical."""
    object.__setattr__(poly, "dim", dim)
    object.__setattr__(poly, "ring", ring)
    object.__setattr__(poly, "num", num)
    object.__setattr__(poly, "den", den)
    return poly


def _fill_exact(poly, dim: int, ring: str, terms: dict):
    """Set the slots of poly from a {key: int or Fraction} map, over the lcm of the denominators.

    Reduced fractions over their lcm have numerators coprime to it, so only
    zeros need dropping.
    """
    terms = {key: c for key, c in terms.items() if c}
    den = lcm(*(c.denominator for c in terms.values()))
    return _fill(poly, dim, ring,
                 {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den)


class _FractionTerms(Mapping):
    """Read-only view (exps, blade) -> Fraction over a polynomial's numerators.

    Length, keys and membership read the numerator map only; a Fraction is
    built when a value is read.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num = num
        self._den = den

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __contains__(self, key) -> bool:
        return key in self._num

    def __repr__(self):
        return repr(dict(self.items()))


class MPoly(_Immutable):
    """Immutable sparse polynomial: (exponent tuple, blade) -> integer numerator, over ``den``."""

    # _parity_classes: ballint's packed index of the terms, set on the first pairing;
    # no method reads it
    __slots__ = ("dim", "ring", "num", "den", "_parity_classes")

    def __init__(self, dim: int, ring: str = GAUSSIAN, terms: dict | None = None):
        """Validate a caller's {exponent tuple: coefficient} map.

        A coefficient is an int, a Fraction, in the gaussian ring a
        GaussianRational, or in the clifford ring a Multivector of R_{0,dim}
        with rational entries.
        """
        dim = _check_space(dim, ring)
        acc: dict = {}
        for exps, coeff in (terms or {}).items():
            exps = _check_exps(exps, dim)
            for blade, c in _blades(coeff, dim, ring):
                _accumulate(acc, (exps, blade), c)
        _fill_exact(self, dim, ring, acc)

    @classmethod
    def _make(cls, dim: int, ring: str, terms: dict) -> "MPoly":
        """Trusted constructor from a {(exps, blade): int or Fraction} map of valid keys."""
        return _fill_exact(object.__new__(cls), dim, ring, terms)

    @classmethod
    def _reduced(cls, dim: int, ring: str, num: dict, den: int) -> "MPoly":
        """Trusted constructor from integer numerators of valid keys over den > 0.

        Drops zero numerators and divides out the gcd, the canonical form.
        """
        num = {key: n for key, n in num.items() if n}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {key: n // g for key, n in num.items()}
                den //= g
        return _fill(object.__new__(cls), dim, ring, num, den)

    def _like(self, num: dict) -> "MPoly":
        """A polynomial of this space from numerators that stay canonical over self.den."""
        return _fill(object.__new__(MPoly), self.dim, self.ring, num, self.den)

    @property
    def terms(self) -> Mapping:
        """(exps, blade) -> Fraction coefficient, as a read-only view."""
        return _FractionTerms(self.num, self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, ring: str = GAUSSIAN) -> "MPoly":
        return cls._make(_check_space(dim, ring), ring, {})

    @classmethod
    def constant(cls, dim: int, value, ring: str = GAUSSIAN) -> "MPoly":
        dim = _check_space(dim, ring)
        return cls(dim, ring, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, j: int, ring: str = GAUSSIAN) -> "MPoly":
        """The coordinate polynomial x_j, 1-based."""
        dim, j = _check_space(dim, ring), _integer(j, "the variable index")
        if not 1 <= j <= dim:
            raise ValueError(f"variable index {j} out of range 1..{dim}")
        exps = tuple(1 if i == j - 1 else 0 for i in range(dim))
        return cls(dim, ring, {exps: 1})

    @classmethod
    def monomial(cls, dim: int, exps, coeff, ring: str = GAUSSIAN) -> "MPoly":
        return cls(dim, ring, {tuple(exps): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has the given total degree (zero passes for all)."""
        return all(sum(exps) == degree for exps, _ in self.num)

    def coeff(self, exps):
        """Coefficient of x^exps: a Multivector (clifford) or an exact scalar (gaussian)."""
        exps = _check_exps(exps, self.dim)
        num, den = self.num, self.den
        # at dim 1, E12 is no blade of R_{0,1}: a gaussian lookup reads blades 0 and E12 only
        blades = range(1 << self.dim) if self.ring == CLIFFORD else (0, E12)
        return _value(self.dim, self.ring, {blade: Fraction(num[exps, blade], den)
                                            for blade in blades if (exps, blade) in num})

    def _require_same(self, other: "MPoly") -> None:
        if self.dim != other.dim or self.ring != other.ring:
            raise ValueError("dimension/ring mismatch")

    def _require_ring(self, ring: str, what: str) -> None:
        if self.ring != ring:
            raise ValueError(f"{what} needs the {ring} ring")

    def _monomials(self) -> list:
        """(exps, coefficient) by total degree, then exponents: a Multivector with its
        blades ascending (clifford) or an exact scalar (gaussian)."""
        by_monomial: dict = {}
        den = self.den
        for (exps, blade), n in sorted(self.num.items(),
                                       key=lambda kv: (sum(kv[0][0]), kv[0])):
            by_monomial.setdefault(exps, {})[blade] = Fraction(n, den)
        return [(exps, _value(self.dim, self.ring, b)) for exps, b in by_monomial.items()]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MPoly):
            if not isinstance(other, (*_EXACT, Multivector)):
                return NotImplemented
            other = MPoly.constant(self.dim, other, self.ring)
        self._require_same(other)
        da, db = self.den, other.den
        if da == db:
            num = dict(self.num)
            get = num.get
            for key, n in other.num.items():
                num[key] = get(key, 0) + n
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            num = {key: n * fa for key, n in self.num.items()}
            get = num.get
            for key, n in other.num.items():
                num[key] = get(key, 0) + n * fb
            da = den
        return MPoly._reduced(self.dim, self.ring, num, da)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -n for key, n in self.num.items()})

    def __sub__(self, other):
        if isinstance(other, (*_EXACT, Multivector)):
            other = MPoly.constant(self.dim, other, self.ring)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product; a Multivector factor multiplies every coefficient from the right."""
        if not isinstance(other, MPoly):
            if isinstance(other, _EXACT):
                return self.scale(other)
            if not isinstance(other, Multivector):
                return NotImplemented
            other = MPoly.constant(self.dim, other, self.ring)
        self._require_same(other)
        acc: dict = {}
        get = acc.get
        right = other.num.items()
        for (ea, ba), na in self.num.items():
            for (eb, bb), nb in right:
                key = (tuple(map(add, ea, eb)), ba ^ bb)
                acc[key] = get(key, 0) + (na * nb if blade_sign(ba, bb) > 0 else -na * nb)
        return MPoly._reduced(self.dim, self.ring, acc, self.den * other.den)

    def __rmul__(self, other):
        """A scalar, or a Multivector multiplying every coefficient from the left."""
        if isinstance(other, _EXACT):
            return self.scale(other)
        if isinstance(other, Multivector):
            return MPoly.constant(self.dim, other, self.ring) * self
        return NotImplemented

    def scale(self, factor):
        if isinstance(factor, GaussianRational):
            return self * MPoly.constant(self.dim, factor, self.ring)
        if not isinstance(factor, (int, Fraction)):
            raise TypeError("scale factor must be an exact scalar")
        p, q = factor.numerator, factor.denominator
        return MPoly._reduced(self.dim, self.ring,
                              {key: p * n for key, n in self.num.items()}, q * self.den)

    def __truediv__(self, other):
        """Division by a nonzero int or Fraction; 0 is a ZeroDivisionError."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.scale(Fraction(1, other))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = MPoly.constant(self.dim, 1, self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # the last square would go unused
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (*_EXACT, Multivector)):
            other = MPoly.constant(self.dim, other, self.ring)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.dim, self.ring, self.den, self.num) == \
               (other.dim, other.ring, other.den, other.num)

    def __hash__(self):
        return hash((self.dim, self.ring, self.den, frozenset(self.num.items())))

    # -- calculus ----------------------------------------------------------

    def deriv(self, j: int) -> "MPoly":
        """Partial derivative with respect to x_j, 1-based."""
        j = _integer(j, "the variable index")
        if not 1 <= j <= self.dim:
            raise ValueError(f"variable index {j} out of range 1..{self.dim}")
        i = j - 1
        num = {}
        for (exps, blade), n in self.num.items():
            if exps[i]:
                lowered, e = _lowered(exps)[i]
                num[lowered, blade] = n * e
        return MPoly._reduced(self.dim, self.ring, num, self.den)

    def laplacian(self) -> "MPoly":
        """Sum of second partials over all variables, in one pass over the terms."""
        acc: dict = {}
        get = acc.get
        for (exps, blade), n in self.num.items():
            for lowered, f in _lowered_twice(exps):
                key = (lowered, blade)
                acc[key] = get(key, 0) + n * f
        return MPoly._reduced(self.dim, self.ring, acc, self.den)

    def dirac(self) -> "MPoly":
        """Apply e_1 d/dx_1 + ... + e_m d/dx_m, generators acting from the left, in one pass."""
        self._require_ring(CLIFFORD, "Dirac operator")
        dim = self.dim
        acc: dict = {}
        get = acc.get
        for (exps, blade), n in self.num.items():
            left = _left_generators(dim, blade)
            for i, (lowered, e) in _lowered(exps).items():
                target, positive = left[i]
                key = (lowered, target)
                acc[key] = get(key, 0) + (n * e if positive else -n * e)
        return MPoly._reduced(dim, CLIFFORD, acc, self.den)

    # -- evaluation --------------------------------------------------------

    def eval(self, point):
        """Evaluate at a point; exact for int/Fraction coordinates, float otherwise.

        The value is a Multivector in the clifford ring and a scalar in the
        gaussian one (a float point gives a complex only if an i term exists).
        """
        point = list(point)
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, need {self.dim}")
        exact = all(isinstance(c, (int, Fraction)) for c in point)
        if exact:
            coords = [Fraction(c) for c in point]
        else:
            coords = [float(c) for c in point]
        den = self.den
        zero = Fraction(0) if exact else 0.0
        acc: dict = {}
        for (exps, blade), n in self.num.items():
            mono = prod(c ** e for c, e in zip(coords, exps) if e)
            # n / den is the correctly rounded float of the coefficient
            acc[blade] = acc.get(blade, zero) + (n if exact else n / den) * mono
        if exact:
            acc = {blade: v / den for blade, v in acc.items()}
        return _value(self.dim, self.ring, acc, zero)

    # -- ring/shape conversions --------------------------------------------

    def embed(self, dim: int) -> "MPoly":
        """View as a polynomial in more variables (new exponents zero, blades unchanged)."""
        dim = _at_least(dim, "the dimension", self.dim)
        if dim == self.dim:
            return self
        pad = (0,) * (dim - self.dim)
        return _fill(object.__new__(MPoly), dim, self.ring,
                     {(exps + pad, blade): n for (exps, blade), n in self.num.items()}, self.den)

    def to_clifford(self) -> "MPoly":
        """The same real polynomial in the clifford ring."""
        if self.ring == GAUSSIAN and any(blade for _, blade in self.num):
            raise ValueError("cannot move genuinely complex coefficients to R_{0,m}")
        return _fill(object.__new__(MPoly), self.dim, CLIFFORD, self.num, self.den)

    def conjugate(self) -> "MPoly":
        """Clifford conjugation of the coefficients, which is i -> -i on the gaussian ring's e12."""
        return self._like({(exps, blade): -n if conjugation_sign(blade) < 0 else n
                           for (exps, blade), n in self.num.items()})

    def real_part(self) -> "MPoly":
        self._require_ring(GAUSSIAN, "real_part")
        return MPoly._reduced(self.dim, GAUSSIAN, {
            (exps, blade): n for (exps, blade), n in self.num.items() if not blade}, self.den)

    def imag_part(self) -> "MPoly":
        self._require_ring(GAUSSIAN, "imag_part")
        return MPoly._reduced(self.dim, GAUSSIAN, {
            (exps, 0): n for (exps, blade), n in self.num.items() if blade}, self.den)

    # -- rendering / serialization ------------------------------------------

    def __repr__(self):
        monomials = len({exps for exps, _ in self.num})
        return f"MPoly({self.dim}, {self.ring!r}, <{monomials} terms>)"

    def __str__(self):
        return self.to_text()

    def to_text(self) -> str:
        """One term per monomial, as '-i - x2 + (1/2+3/4i)*x1' or '-x3 + (1 - 2*e13)*x1'."""
        return _sum_text(
            (str(value),
             "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e))
            for exps, value in self._monomials())

    def to_json(self) -> dict:
        """{"m", "ring", "terms"}: one entry per term; clifford entries name their blade."""
        entries = []
        for exps, value in self._monomials():
            blades = value.terms if self.ring == CLIFFORD else {0: value}
            for blade, coeff in blades.items():
                re, im = _as_pair(coeff)
                entry = {"exp": list(exps)}
                if self.ring == CLIFFORD:
                    entry["blade"] = blade
                entry.update(num=re.numerator, den=re.denominator)
                if im:
                    entry.update(inum=im.numerator, iden=im.denominator)
                entries.append(entry)
        return {"m": self.dim, "ring": self.ring, "terms": entries}

    @_json_reader
    def from_json(cls, data: dict) -> "MPoly":
        ring = data["ring"]
        dim = _check_space(data["m"], ring)
        acc: dict = {}
        for entry in data["terms"]:
            blade = entry.get("blade", 0)
            if not 0 <= blade < (1 << dim) or (blade and ring != CLIFFORD):
                raise ValueError(f"bad blade {blade} for the {ring} ring in dim {dim}")
            exps = _check_exps(entry["exp"], dim)
            if (exps, blade) in acc:
                raise ValueError(f"malformed {cls.__name__} document: the term at exponents "
                                 f"{exps} and blade {blade} is listed twice")
            coeff = make_gaussian(Fraction(entry["num"], entry["den"]),
                                  Fraction(entry.get("inum", 0), entry.get("iden", 1)))
            # blade or part is 0, and part 0 always comes: it marks (exps, blade) as read
            for part, c in _blades(coeff, dim, ring):
                acc[exps, blade | part] = c
        return cls._make(dim, ring, acc)


def radius_squared(dim: int, ring: str = GAUSSIAN) -> MPoly:
    """|x|^2 = x_1^2 + ... + x_dim^2 as a polynomial in dim variables."""
    dim = _check_space(dim, ring)
    terms = {}
    for j in range(dim):
        exps = tuple(2 if i == j else 0 for i in range(dim))
        terms[exps] = 1
    return MPoly(dim, ring, terms)
