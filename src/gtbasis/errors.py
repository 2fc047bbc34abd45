"""Exceptions and error texts shared across the generating-function evaluators."""

FLOAT_OVERFLOW = "the generating-function value overflows the float range"


class DomainError(ValueError):
    """Evaluation point lies outside the certified convergence box."""


class SingularityError(ValueError):
    """The kernel 1 - 2*x_m*h_m + h_m^2*|x|^2 is not positive."""
