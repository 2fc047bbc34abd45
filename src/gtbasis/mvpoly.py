"""Multivariate polynomials in x_1..x_m over exact coefficient rings.

A polynomial is one sparse map (exponents, blade) -> Fraction.  The blade is
a bitmask over the generators of R_{0,m}, with the same m as the variables.
Two rings share this representation: ``clifford`` polynomials may use every
blade, ``gaussian`` ones store a + b*i as a on blade 0 and b on E12 = e_1 e_2
(e12^2 = -1, and Clifford conjugation of e12 is i -> -i).  GaussianRational
is only the boundary type of input, ``coeff``, ``eval``, text and JSON.
Variables are real and commute with everything; in the Clifford ring only
the blades fail to commute, so products keep factor order.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .clifford import E12, Multivector, blade_sign, conjugation_sign
from .scalars import GaussianRational, make_gaussian

GAUSSIAN = "gaussian"
CLIFFORD = "clifford"

_RINGS = (GAUSSIAN, CLIFFORD)
_EXACT = (int, Fraction, GaussianRational)


def _check_space(dim: int, ring: str) -> None:
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if ring not in _RINGS:
        raise ValueError(f"unknown ring {ring!r}")


def _check_exps(exps, dim: int) -> tuple:
    exps = tuple(int(e) for e in exps)
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
        return [(mask, c) for mask, entry in coeff.terms.items()
                for _, c in _blades(entry, dim, ring)]
    if not isinstance(coeff, _EXACT):
        raise TypeError("coefficients must be exact scalars or Multivectors")
    if not isinstance(coeff, GaussianRational):
        return ((0, Fraction(coeff)),)
    if ring != GAUSSIAN:
        raise TypeError("clifford-ring coefficients must be rational")
    return ((0, coeff.re), (E12, coeff.im))


def _accumulate(acc: dict, key, coeff) -> None:
    acc[key] = acc[key] + coeff if key in acc else coeff


def _fill(poly, dim: int, ring: str, terms: dict):
    object.__setattr__(poly, "dim", dim)
    object.__setattr__(poly, "ring", ring)
    object.__setattr__(poly, "terms", {key: c for key, c in terms.items() if c})
    return poly


class MPoly:
    """Immutable sparse polynomial: (exponent tuple, blade) -> Fraction."""

    __slots__ = ("dim", "ring", "terms")

    def __init__(self, dim: int, ring: str = GAUSSIAN, terms: dict | None = None):
        """Validate a caller's {exponent tuple: coefficient} map.

        A coefficient is an int, a Fraction, in the gaussian ring a
        GaussianRational, or in the clifford ring a Multivector of R_{0,dim}
        with rational entries.
        """
        _check_space(dim, ring)
        acc: dict = {}
        for exps, coeff in (terms or {}).items():
            exps = _check_exps(exps, dim)
            for blade, c in _blades(coeff, dim, ring):
                _accumulate(acc, (exps, blade), c)
        _fill(self, dim, ring, acc)

    @classmethod
    def _make(cls, dim: int, ring: str, terms: dict) -> "MPoly":
        """Trusted constructor for terms built from valid polynomials: drops zeros only."""
        return _fill(object.__new__(cls), dim, ring, terms)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, ring: str = GAUSSIAN) -> "MPoly":
        return cls(dim, ring, {})

    @classmethod
    def constant(cls, dim: int, value, ring: str = GAUSSIAN) -> "MPoly":
        return cls(dim, ring, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, j: int, ring: str = GAUSSIAN) -> "MPoly":
        """The coordinate polynomial x_j, 1-based."""
        if not 1 <= j <= dim:
            raise ValueError(f"variable index {j} out of range 1..{dim}")
        exps = tuple(1 if i == j - 1 else 0 for i in range(dim))
        return cls(dim, ring, {exps: 1})

    @classmethod
    def monomial(cls, dim: int, exps, coeff, ring: str = GAUSSIAN) -> "MPoly":
        return cls(dim, ring, {tuple(exps): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Largest total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(exps) for exps, _ in self.terms)

    def is_homogeneous(self, degree: int) -> bool:
        """True when every term has the given total degree (zero passes for all)."""
        return all(sum(exps) == degree for exps, _ in self.terms)

    def coeff(self, exps):
        """Coefficient of x^exps: a Multivector (clifford) or an exact scalar (gaussian)."""
        exps = tuple(exps)
        if self.ring == GAUSSIAN:
            return make_gaussian(self.terms.get((exps, 0), 0), self.terms.get((exps, E12), 0))
        return Multivector(self.dim, {blade: self.terms[exps, blade]
                                      for blade in range(1 << self.dim)
                                      if (exps, blade) in self.terms})

    def _require_same(self, other: "MPoly") -> None:
        if self.dim != other.dim or self.ring != other.ring:
            raise ValueError("dimension/ring mismatch")

    def _require_ring(self, ring: str, what: str) -> None:
        if self.ring != ring:
            raise ValueError(f"{what} needs the {ring} ring")

    def _monomials(self) -> list:
        """(exps, {blade: exact scalar}) by total degree, then exponents, then blade.

        Gaussian blades 0 and E12 come back as one scalar on blade 0.
        """
        by_monomial: dict = {}
        for (exps, blade), c in sorted(self.terms.items(),
                                       key=lambda kv: (sum(kv[0][0]), kv[0])):
            by_monomial.setdefault(exps, {})[blade] = c
        if self.ring == CLIFFORD:
            return list(by_monomial.items())
        return [(exps, {0: make_gaussian(b.get(0, 0), b.get(E12, 0))})
                for exps, b in by_monomial.items()]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (*_EXACT, Multivector)):
            other = MPoly.constant(self.dim, other, self.ring)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _accumulate(terms, key, coeff)
        return MPoly._make(self.dim, self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._make(self.dim, self.ring, {key: -c for key, c in self.terms.items()})

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
        if isinstance(other, _EXACT):
            return self.scale(other)
        if isinstance(other, Multivector):
            other = MPoly.constant(self.dim, other, self.ring)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._require_same(other)
        dim = self.dim
        acc: dict = {}
        for (ea, ba), ca in self.terms.items():
            for (eb, bb), cb in other.terms.items():
                c = ca * cb
                _accumulate(acc, (tuple(map(add, ea, eb)), ba ^ bb),
                            c if blade_sign(ba, bb) > 0 else -c)
        return MPoly._make(dim, self.ring, acc)

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
        return MPoly._make(self.dim, self.ring,
                           {key: factor * c for key, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = MPoly.constant(self.dim, 1, self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _EXACT):
            other = MPoly.constant(self.dim, other, self.ring)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.dim, self.ring, self.terms) == (other.dim, other.ring, other.terms)

    def __hash__(self):
        return hash((self.dim, self.ring, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def deriv(self, j: int) -> "MPoly":
        """Partial derivative with respect to x_j, 1-based."""
        if not 1 <= j <= self.dim:
            raise ValueError(f"variable index {j} out of range 1..{self.dim}")
        i = j - 1
        terms = {}
        for (exps, blade), coeff in self.terms.items():
            if exps[i]:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                terms[lowered, blade] = coeff * exps[i]
        return MPoly._make(self.dim, self.ring, terms)

    def laplacian(self) -> "MPoly":
        """Sum of second partials over all variables, in one pass over the terms."""
        acc: dict = {}
        for (exps, blade), coeff in self.terms.items():
            for i, e in enumerate(exps):
                if e > 1:
                    lowered = exps[:i] + (e - 2,) + exps[i + 1:]
                    _accumulate(acc, (lowered, blade), coeff * (e * (e - 1)))
        return MPoly._make(self.dim, self.ring, acc)

    def dirac(self) -> "MPoly":
        """Apply e_1 d/dx_1 + ... + e_m d/dx_m, generators acting from the left."""
        self._require_ring(CLIFFORD, "Dirac operator")
        origin = (0,) * self.dim
        out = MPoly.zero(self.dim, CLIFFORD)
        for j in range(1, self.dim + 1):
            ej = MPoly._make(self.dim, CLIFFORD, {(origin, 1 << (j - 1)): Fraction(1)})
            out = out + ej * self.deriv(j)
        return out

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
        pows = [{0: coords[i] ** 0} for i in range(self.dim)]

        def power(i, e):
            cache = pows[i]
            if e not in cache:
                cache[e] = coords[i] ** e
            return cache[e]

        zero = Fraction(0) if exact else 0.0
        acc: dict = {}
        for (exps, blade), coeff in self.terms.items():
            mono = Fraction(1) if exact else 1.0
            for i, e in enumerate(exps):
                if e:
                    mono *= power(i, e)
            acc[blade] = acc.get(blade, zero) + (coeff if exact else float(coeff)) * mono
        if self.ring == CLIFFORD:
            return Multivector(self.dim, acc)
        re, im = acc.get(0, zero), acc.get(E12)
        if exact:
            return make_gaussian(re, im or 0)
        return re if im is None else complex(re, im)

    # -- ring/shape conversions --------------------------------------------

    def embed(self, dim: int) -> "MPoly":
        """View as a polynomial in more variables (new exponents zero, blades unchanged)."""
        if dim < self.dim:
            raise ValueError("cannot embed into fewer variables")
        if dim == self.dim:
            return self
        pad = (0,) * (dim - self.dim)
        return MPoly._make(dim, self.ring, {(exps + pad, blade): c
                                            for (exps, blade), c in self.terms.items()})

    def to_clifford(self) -> "MPoly":
        """The same real polynomial in the clifford ring."""
        if self.ring == GAUSSIAN and any(blade for _, blade in self.terms):
            raise ValueError("cannot move genuinely complex coefficients to R_{0,m}")
        return MPoly._make(self.dim, CLIFFORD, self.terms)

    def conjugate(self) -> "MPoly":
        """Clifford conjugation of the coefficients, which is i -> -i on the gaussian ring's e12."""
        return MPoly._make(self.dim, self.ring, {
            (exps, blade): -c if conjugation_sign(blade) < 0 else c
            for (exps, blade), c in self.terms.items()})

    def real_part(self) -> "MPoly":
        self._require_ring(GAUSSIAN, "real_part")
        return MPoly._make(self.dim, GAUSSIAN, {
            (exps, blade): c for (exps, blade), c in self.terms.items() if not blade})

    def imag_part(self) -> "MPoly":
        self._require_ring(GAUSSIAN, "imag_part")
        return MPoly._make(self.dim, GAUSSIAN, {
            (exps, 0): c for (exps, blade), c in self.terms.items() if blade})

    # -- rendering / serialization ------------------------------------------

    def __repr__(self):
        monomials = len({exps for exps, _ in self.terms})
        return f"MPoly({self.dim}, {self.ring!r}, <{monomials} terms>)"

    def __str__(self):
        return self.to_text()

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, blades in self._monomials():
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps) if e
            )
            ctxt = Multivector(self.dim, blades).to_text()
            if len(blades) > 1 or (mono and 0 in blades
                                   and ("+" in ctxt[1:] or "-" in ctxt[1:])):
                ctxt = f"({ctxt})"
            if not mono:
                parts.append(ctxt)
            elif ctxt == "1":
                parts.append(mono)
            elif ctxt == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{ctxt}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        """{"m", "ring", "terms"}: one entry per term; clifford entries name their blade."""
        entries = []
        for exps, blades in self._monomials():
            for blade, coeff in blades.items():
                re, im = (coeff.re, coeff.im) if isinstance(coeff, GaussianRational) \
                    else (coeff, Fraction(0))
                entry = {"exp": list(exps)}
                if self.ring == CLIFFORD:
                    entry["blade"] = blade
                entry.update(num=re.numerator, den=re.denominator)
                if im:
                    entry.update(inum=im.numerator, iden=im.denominator)
                entries.append(entry)
        return {"m": self.dim, "ring": self.ring, "terms": entries}

    @classmethod
    def from_json(cls, data: dict) -> "MPoly":
        dim = data["m"]
        ring = data["ring"]
        _check_space(dim, ring)
        acc: dict = {}
        for entry in data["terms"]:
            blade = entry.get("blade", 0)
            if not 0 <= blade < (1 << dim) or (blade and ring != CLIFFORD):
                raise ValueError(f"bad blade {blade} for the {ring} ring in dim {dim}")
            exps = _check_exps(entry["exp"], dim)
            coeff = make_gaussian(Fraction(entry["num"], entry["den"]),
                                  Fraction(entry.get("inum", 0), entry.get("iden", 1)))
            for part, c in _blades(coeff, dim, ring):  # blade or part is 0
                _accumulate(acc, (exps, blade | part), c)
        return cls._make(dim, ring, acc)


def radius_squared(dim: int, upto: int | None = None, ring: str = GAUSSIAN) -> MPoly:
    """|x|_r^2 = x_1^2 + ... + x_r^2 as a polynomial in dim variables (r defaults to dim)."""
    r = dim if upto is None else upto
    if not 1 <= r <= dim:
        raise ValueError("upto out of range")
    terms = {}
    for j in range(r):
        exps = tuple(2 if i == j else 0 for i in range(dim))
        terms[exps] = 1
    return MPoly(dim, ring, terms)
