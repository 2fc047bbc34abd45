"""Exceptions, error texts, the argument gates (integer, bounded integer, exact rational),
the finite-float conversion of an input, the float-range boundary, the JSON reader guard
and the immutable base of the value types, shared across modules."""

import math
from cmath import isfinite
from fractions import Fraction
from functools import wraps
from operator import index

FLOAT_OVERFLOW = "the generating-function value overflows the float range"


class DomainError(ValueError):
    """Evaluation point lies outside the certified convergence box."""


class SingularityError(ValueError):
    """The kernel 1 - 2*x_m*h_m + h_m^2*|x|^2 is not positive."""


def _integer(value, what: str) -> int:
    """value as an int through operator.index; anything non-integral is a ValueError."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _at_least(value, what: str, low: int) -> int:
    """value as an int (_integer) of at least low; a smaller one is a ValueError."""
    value = _integer(value, what)
    if value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def _rational(value, what: str) -> Fraction:
    """value as a Fraction: an int or a Fraction; anything else (a float too) is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def _floats(values, what: str) -> list:
    """values as finite floats; one beyond the float range (an int of 400 digits, say,
    raised from the OverflowError) or not finite is a ValueError that names what."""
    try:
        out = [float(v) for v in values]
    except OverflowError as exc:
        raise ValueError(f"{what} is beyond the float range") from exc
    # a nan or an inf makes the sum non-finite; a sum that overflows is read value by value
    if not (math.isfinite(sum(out)) or all(map(math.isfinite, out))):
        raise ValueError(f"{what} must be finite")
    return out


def _float_value(evaluate):
    """evaluate as a float entry point: an OverflowError it raises, or a result that is not
    finite (a float, a complex or a float Multivector), is a FLOAT_OVERFLOW ValueError."""
    @wraps(evaluate)
    def checked(*args, **kwargs):
        try:
            value = evaluate(*args, **kwargs)
        except OverflowError as exc:
            raise ValueError(FLOAT_OVERFLOW) from exc
        if isinstance(value, (float, complex)):
            finite = isfinite(value)
        else:
            finite = all(map(isfinite, value.terms.values()))
        if not finite:
            raise ValueError(FLOAT_OVERFLOW)
        return value
    return checked


def _json_reader(read):
    """read as from_json: a missing key, a wrong type or a zero denominator is a ValueError."""
    def from_json(cls, data):
        try:
            return read(cls, data)
        except (AttributeError, LookupError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed {cls.__name__} document: {exc!r}") from None
    return classmethod(from_json)


class _Immutable:
    """Each slot is set once, by object.__setattr__.  Copies and pickles carry the
    public slots; a private slot is a cache, rebuilt on demand."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__ if not name.startswith("_")}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
