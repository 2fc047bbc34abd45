"""Exact scalar arithmetic: Gaussian rationals and pi-scaled values."""

import operator
from fractions import Fraction

import pytest

from gtbasis import GaussianRational, PiScaled
from gtbasis.scalars import binom_frac, make_gaussian


def test_canonical_form_collapses_to_fraction():
    assert make_gaussian(3, 0) == Fraction(3)
    assert isinstance(make_gaussian(3, 0), Fraction)
    assert isinstance(make_gaussian(3, 1), GaussianRational)


def test_arithmetic_returns_canonical_values():
    i = make_gaussian(0, 1)
    assert i * i == Fraction(-1)
    assert isinstance(i * i, Fraction)
    z = make_gaussian(Fraction(1, 2), Fraction(3, 4))
    assert z + z.conjugate() == Fraction(1)
    assert z - z == 0


def test_multiplication_and_division():
    z = make_gaussian(1, 2)
    w = make_gaussian(3, -1)
    assert z * w == make_gaussian(5, 5)
    assert (z * w) / w == z
    assert z / z == 1


def test_reflected_division_by_gaussian():
    z = make_gaussian(0, 1)
    assert 1 / z == make_gaussian(0, -1)
    assert Fraction(2) / z == make_gaussian(0, -2)
    assert Fraction(5, 2) / make_gaussian(1, 1) == make_gaussian(Fraction(5, 4), Fraction(-5, 4))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_gaussian(1, 1) / Fraction(0)
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        GaussianRational(0, 0)


# GaussianRational(1, 0) was accepted, and an MPoly of the clifford ring refused it as
# a coefficient that is not rational, though it equals 1
@pytest.mark.parametrize("re", [0, 3, Fraction(-5, 2)])
def test_a_zero_imaginary_part_is_refused(re):
    with pytest.raises(ValueError, match="^a GaussianRational needs a nonzero imaginary part"):
        GaussianRational(re, 0)
    with pytest.raises(ValueError, match="^a GaussianRational needs a nonzero imaginary part"):
        GaussianRational(re, Fraction(0))


@pytest.mark.parametrize("compute", [
    lambda z: z * z.conjugate(),
    lambda z: z + z.conjugate(),
    lambda z: z - make_gaussian(0, 2),
    lambda z: z * make_gaussian(2, -4),
    lambda z: z / make_gaussian(1, 2),
    lambda z: Fraction(5) / z * z,
    lambda z: z ** 4 / make_gaussian(-7, -24),
], ids=["norm", "twice-re", "sub", "mul", "div", "rdiv", "pow"])
def test_arithmetic_that_cancels_the_imaginary_part_returns_a_fraction(compute):
    value = compute(GaussianRational(1, 2))
    assert type(value) is Fraction


def test_integer_powers():
    z = make_gaussian(1, 1)
    assert z ** 0 == 1
    assert z ** 2 == make_gaussian(0, 2)
    assert z ** 4 == Fraction(-4)


@pytest.mark.parametrize("op", [operator.mul, operator.add, operator.sub, operator.truediv])
@pytest.mark.parametrize("other", [2.0, 2j])
def test_a_gaussian_never_mixes_with_a_float(op, other):
    z = make_gaussian(1, 2)
    with pytest.raises(TypeError):
        op(z, other)
    with pytest.raises(TypeError):
        op(other, z)


def test_generalized_binomial_coefficients():
    assert binom_frac(Fraction(-1), 3) == -1
    assert binom_frac(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert binom_frac(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert binom_frac(Fraction(5), 2) == 10
    assert binom_frac(Fraction(5), 7) == 0


def test_pi_scaled_multiplication_accumulates_powers():
    a = PiScaled(Fraction(2, 3), 1)
    b = PiScaled(Fraction(3, 4), 3)
    assert a * b == PiScaled(Fraction(1, 2), 4)
    assert a * Fraction(3, 2) == PiScaled(1, 1)


def test_pi_scaled_zero_is_canonical():
    assert PiScaled(0, 7) == PiScaled(0, 0)
    assert PiScaled(0, 7).s == 0


def test_pi_scaled_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        PiScaled(0.5, 1)


# zeros are canonical (q = 0, s = 0), so equality needs no case of its own for them
def test_pi_scaled_zeros_of_any_pi_power_are_equal():
    zeros = [PiScaled(0, 3), PiScaled(Fraction(0), -2), PiScaled(1, 3) - PiScaled(1, 3),
             PiScaled.zero(), PiScaled(2, 5) * 0]
    for a in zeros:
        for b in zeros:
            assert a == b and hash(a) == hash(b)
    assert PiScaled(0, 3) != PiScaled(1, 0)


@pytest.mark.parametrize("q, s, text, rep", [
    (Fraction(3, 2), 0, "3/2", "PiScaled(3/2)"),
    (Fraction(-4, 15), 2, "-4/15*pi", "PiScaled(-4/15*pi^(2/2))"),
    (Fraction(1, 3), 3, "1/3*pi^(3/2)", "PiScaled(1/3*pi^(3/2))"),
    (0, 5, "0", "PiScaled(0)"),
    (make_gaussian(0, 1), 0, "i", "PiScaled(i)"),
    (make_gaussian(0, -2), 1, "-2i*pi^(1/2)", "PiScaled(-2i*pi^(1/2))"),
    (make_gaussian(Fraction(1, 2), Fraction(3, 4)), -1, "1/2+3/4i*pi^(-1/2)",
     "PiScaled(1/2+3/4i*pi^(-1/2))"),
    (make_gaussian(1, -1), 4, "1-i*pi^(2)", "PiScaled(1-i*pi^(4/2))"),
    (make_gaussian(Fraction(-1, 3), 1), 0, "-1/3+i", "PiScaled(-1/3+i)"),
])
def test_pi_scaled_text_of_a_fraction_and_of_a_gaussian(q, s, text, rep):
    value = PiScaled(q, s)
    assert str(value) == text
    assert repr(value) == rep

