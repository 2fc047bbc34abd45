"""Clifford algebra R_{0,m}: generators e_1..e_m with e_j^2 = -1.

Blades are bitmasks over the generators (bit j-1 set means e_j is present,
generators kept in ascending order), so a multivector is a sparse map from
blade mask to coefficient.  Coefficients are either exact (Fraction; an int
becomes one) or float; the two modes never mix inside one value, and an exact
operand meeting a float one in arithmetic is a TypeError.  A scalar operand s
counts as Multivector.scalar(dim, s), and the zero multivector (a zero scalar
too) meets either mode.  There is no complex coefficient: the imaginary unit
of the exact polynomials is the blade e12.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import _Immutable, _integer

SCALAR_BLADE = 0

#: e_1 e_2, which squares to -1: exact polynomials store a + b*i as a on 1 and b on e12
E12 = 0b11


def _check_mask(mask, dim: int) -> int:
    """mask as an int blade of R_{0,dim}; anything else is a ValueError."""
    mask = _integer(mask, "a blade mask")
    if not 0 <= mask < (1 << dim):
        raise ValueError(f"blade mask {mask:#b} is negative or exceeds dimension {dim}")
    return mask


@lru_cache(maxsize=1 << 16)
def blade_sign(a: int, b: int) -> int:
    """Sign in {+1, -1} of the product of two canonical blades, whose mask is a ^ b.

    The sign counts the transpositions needed to merge the ascending
    generator lists, plus one factor -1 for every repeated generator
    (e_j e_j = -1).
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    return -1 if (swaps + (a & b).bit_count()) & 1 else 1


def blade_product(a: int, b: int, dim: int) -> tuple[int, int]:
    """Product of two canonical blades of R_{0,dim}: returns (sign, mask)."""
    dim = _integer(dim, "the dimension")
    a, b = _check_mask(a, dim), _check_mask(b, dim)
    return blade_sign(a, b), a ^ b


def conjugation_sign(mask: int) -> int:
    """Sign of a blade under Clifford conjugation: (-1)^(r(r+1)/2) at grade r."""
    r = mask.bit_count()
    return -1 if (r * (r + 1) // 2) & 1 else 1


def blade_name(mask: int) -> str:
    """Human name of a blade: '1' for the scalar, else e.g. 'e13'."""
    mask = _integer(mask, "a blade mask")
    if mask < 0:
        raise ValueError(f"blade mask {mask:#b} is negative")
    if mask == 0:
        return "1"
    return "e" + "".join(str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1)


_EXACT = (int, Fraction)
_SCALARS = (*_EXACT, float)


def _sum_text(terms) -> str:
    """Render (coefficient text, name) terms as a sum; name "" marks the constant.

    A coefficient 1 or -1 before a name is elided.  A coefficient is
    parenthesised when it is itself a sum (it holds a space), or when it has
    a name and a sign after its first character.  "+ -" folds to "- ".
    """
    parts = []
    for ctxt, name in terms:
        if name and ctxt in ("1", "-1"):
            parts.append(ctxt[:-1] + name)
            continue
        if " " in ctxt or (name and ("+" in ctxt[1:] or "-" in ctxt[1:])):
            ctxt = f"({ctxt})"
        parts.append(f"{ctxt}*{name}" if name else ctxt)
    return " + ".join(parts).replace("+ -", "- ") or "0"


class Multivector(_Immutable):
    """Immutable element of R_{0,m} with sparse blade coefficients."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        # exact ints skip the gates: the float evaluators build one Multivector per call
        dim = dim if type(dim) is int else _integer(dim, "the dimension")
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        clean = {}
        exact = None
        size = 1 << dim
        for mask, coeff in (terms or {}).items():
            if type(mask) is not int or not 0 <= mask < size:
                mask = _check_mask(mask, dim)
            # float first: the exact test runs Fraction's ABC isinstance hook
            if isinstance(coeff, float):
                this_exact = False
            elif isinstance(coeff, _EXACT):
                this_exact = True
                if isinstance(coeff, int):
                    coeff = Fraction(coeff)
            else:
                raise TypeError(f"unsupported coefficient type {type(coeff).__name__}")
            if exact is None:
                exact = this_exact
            elif exact != this_exact:
                raise ValueError("exact and float coefficients mixed in one multivector")
            if coeff == 0:
                continue
            clean[mask] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of_floats(cls, dim: int, pairs) -> "Multivector":
        """Trusted constructor from (mask, float) pairs whose masks are valid blades of
        R_{0,dim}, for the float evaluators: drops 0.0 and -0.0 as __init__ does and
        keeps NaN and inf, which the evaluators' float-range boundary refuses."""
        value = object.__new__(cls)
        object.__setattr__(value, "dim", dim)
        object.__setattr__(value, "terms", {mask: coeff for mask, coeff in pairs if coeff})
        return value

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim, {})

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        return cls(dim, {SCALAR_BLADE: value})

    @classmethod
    def blade(cls, dim: int, mask: int, coeff=1) -> "Multivector":
        return cls(dim, {mask: coeff})

    @classmethod
    def basis_vector(cls, dim: int, j: int) -> "Multivector":
        """e_j, 1-based."""
        dim, j = _integer(dim, "the dimension"), _integer(j, "the generator index")
        if not 1 <= j <= dim:
            raise ValueError(f"generator index {j} out of range 1..{dim}")
        return cls(dim, {1 << (j - 1): 1})

    @classmethod
    def vector(cls, dim: int, coords) -> "Multivector":
        """x_1 e_1 + ... + x_dim e_dim."""
        coords = list(coords)
        if len(coords) != dim:
            raise ValueError("coordinate count must equal dim")
        return cls(dim, {1 << j: c for j, c in enumerate(coords)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return not any(isinstance(c, float) for c in self.terms.values())

    def coeff(self, mask: int):
        c = self.terms.get(mask)
        if c is not None:
            return c
        return Fraction(0) if self.is_exact() else 0.0

    def scalar_part(self):
        return self.coeff(SCALAR_BLADE)

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "Multivector") -> None:
        """One dimension, and one mode unless an operand is zero."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")
        if self.terms and other.terms and self.is_exact() != other.is_exact():
            raise TypeError("an exact and a float multivector do not mix")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            if isinstance(other, _SCALARS):
                other = Multivector.scalar(self.dim, other)
            else:
                return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for mask, coeff in other.terms.items():
            terms[mask] = terms.get(mask, 0) + coeff
        return Multivector(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            if isinstance(other, _SCALARS):
                other = Multivector.scalar(self.dim, other)
            else:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            if isinstance(other, _SCALARS):
                return self.scale(other)
            return NotImplemented
        self._require_same(other)
        acc: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                c = ca * cb
                if blade_sign(ma, mb) < 0:
                    c = -c
                mask = ma ^ mb
                acc[mask] = acc.get(mask, 0) + c
        return Multivector(self.dim, acc)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor):
        if isinstance(factor, _SCALARS):
            self._require_same(Multivector.scalar(self.dim, factor))
        return Multivector(self.dim, {m: factor * c for m, c in self.terms.items()})

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: grade r scaled by (-1)^(r(r+1)/2); conj(ab) = conj(b)conj(a)."""
        return Multivector(self.dim, {mask: -coeff if conjugation_sign(mask) < 0 else coeff
                                      for mask, coeff in self.terms.items()})

    # -- conversions -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            if isinstance(other, _EXACT):
                other = Multivector.scalar(self.dim, other)
            else:
                return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Multivector({self.dim}, {{{', '.join(f'{m}: {c!r}' for m, c in sorted(self.terms.items()))}}})"

    def __str__(self):
        return self.to_text()

    def to_text(self) -> str:
        """'1/2 - e12' or '1e-05 + (1e-05)*e1': str of each coefficient, blades ascending."""
        return _sum_text((str(c), blade_name(mask) if mask else "")
                         for mask, c in sorted(self.terms.items()))
