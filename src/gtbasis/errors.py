"""Exceptions, error texts and the integer argument check shared across modules."""

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
