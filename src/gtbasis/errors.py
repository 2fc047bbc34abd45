"""Exceptions, error texts, the integer argument check, the JSON reader guard and the
immutable base of the value types, shared across modules."""

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
