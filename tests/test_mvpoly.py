"""Polynomial arithmetic, Laplace and Dirac operators, evaluation."""

from fractions import Fraction

import numpy as np
import pytest

from gtbasis import (CLIFFORD, GAUSSIAN, BasisIndex, MPoly, Multivector,
                     harm_basis)
from gtbasis.scalars import make_gaussian

I = make_gaussian(0, 1)


def x(m, j, ring=GAUSSIAN):
    return MPoly.variable(m, j, ring)


def rnd_clifford_poly(rng, m, deg):
    terms = {}
    for _ in range(6):
        exps = []
        left = deg
        for _ in range(m):
            e = int(rng.integers(0, left + 1))
            exps.append(e)
            left -= e
        mask = int(rng.integers(0, 1 << m))
        coeff = Multivector.blade(m, mask, Fraction(int(rng.integers(-9, 10)),
                                                    int(rng.integers(1, 10))))
        key = tuple(exps)
        terms[key] = terms.get(key, Multivector.zero(m)) + coeff
    return MPoly(m, CLIFFORD, terms)


def test_eval_unit_circle_point():
    p = x(2, 1) ** 2 + x(2, 2) ** 2
    assert p.eval((Fraction(3, 5), Fraction(4, 5))) == 1


def test_eval_single_variable():
    assert x(3, 3).eval((0, 0, Fraction(1, 2))) == Fraction(1, 2)


def test_eval_clifford_expansion():
    p = x(3, 3, CLIFFORD).scale(2) \
        + x(3, 1, CLIFFORD) * Multivector.blade(3, 0b101) \
        + x(3, 2, CLIFFORD) * Multivector.blade(3, 0b110)
    assert p.eval((1, 1, 1)) == Multivector(3, {0: 2, 0b101: 1, 0b110: 1})


def test_eval_float_mode():
    p = x(2, 1) ** 2 + x(2, 2).scale(I)
    v = p.eval((0.5, 2.0))
    assert v == pytest.approx(0.25 + 2j)


def test_laplacian_classic_harmonic():
    assert (x(2, 1) ** 2 - x(2, 2) ** 2).laplacian().is_zero()


def test_laplacian_of_square():
    assert (x(3, 1) ** 2).laplacian() == MPoly.constant(3, 2)


def test_laplacian_of_degree_two_harmonic_basis_element():
    # 3*x3*(x1 + i*x2), differentiated by hand: every term is linear in each variable
    p = (x(3, 3) * (x(3, 1) + x(3, 2).scale(I))).scale(3)
    assert p.laplacian().is_zero()
    assert p == harm_basis(BasisIndex((1, 1), +1))


def test_dirac_on_degree_one_monogenic():
    p = MPoly(2, CLIFFORD, {(1, 0): Multivector.scalar(2, 1),
                            (0, 1): Multivector.blade(2, 0b11, -1)})
    assert p.dirac().is_zero()


def test_dirac_of_coordinate():
    assert x(3, 1, CLIFFORD).dirac() == MPoly.constant(3, Multivector.basis_vector(3, 1), CLIFFORD)


def test_dirac_on_first_embedding_factor():
    # 2*x3 + x1*e13 + x2*e23: e1*e13 + e2*e23 + 2*e3 = -e3 - e3 + 2*e3 = 0
    p = x(3, 3, CLIFFORD).scale(2) \
        + x(3, 1, CLIFFORD) * Multivector.blade(3, 0b101) \
        + x(3, 2, CLIFFORD) * Multivector.blade(3, 0b110)
    assert p.dirac().is_zero()


def test_dirac_requires_clifford_ring():
    with pytest.raises(ValueError):
        x(3, 1).dirac()


def test_homogeneity():
    assert ((x(2, 1) + x(2, 2).scale(I)) ** 2).is_homogeneous(2)
    assert not (x(2, 1) + x(2, 2) ** 2).is_homogeneous(2)
    assert harm_basis(BasisIndex((2, 1), +1)).is_homogeneous(3)


def test_zero_polynomial_degree_is_undefined():
    zero = MPoly.zero(3)
    assert zero.is_homogeneous(0) and zero.is_homogeneous(5)


def test_factorization_minus_dirac_squared_is_laplacian():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        deg = int(rng.integers(0, 6))
        p = rnd_clifford_poly(rng, m, deg)
        assert -p.dirac().dirac() == p.laplacian()


def test_leibniz_rule():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = rnd_clifford_poly(rng, 3, 3)
        q = rnd_clifford_poly(rng, 3, 3)
        for j in (1, 2, 3):
            assert (p * q).deriv(j) == p.deriv(j) * q + p * q.deriv(j)


def test_eval_is_ring_homomorphism():
    rng = np.random.default_rng(14)
    for _ in range(10):
        p = rnd_clifford_poly(rng, 3, 3)
        q = rnd_clifford_poly(rng, 3, 3)
        pt = tuple(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                   for _ in range(3))
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)


def test_eval_arity_mismatch():
    with pytest.raises(ValueError):
        x(3, 1).eval((1, 2))


def test_json_round_trip_gaussian():
    p = (x(3, 1) + x(3, 2).scale(I)) ** 2 - x(3, 3).scale(Fraction(5, 7))
    assert MPoly.from_json(p.to_json()) == p


def test_json_round_trip_clifford():
    rng = np.random.default_rng(15)
    p = rnd_clifford_poly(rng, 3, 3)
    assert MPoly.from_json(p.to_json()) == p


def test_division_by_int_and_fraction():
    p = x(3, 1) * x(3, 2) + x(3, 3).scale(Fraction(3, 4))
    assert p / 3 == p.scale(Fraction(1, 3))
    assert p / Fraction(-3, 4) == p.scale(Fraction(-4, 3))
    q = x(3, 1, CLIFFORD) * MPoly.constant(3, Multivector.blade(3, 0b101, 2), CLIFFORD)
    assert q / 2 == q.scale(Fraction(1, 2))


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        x(3, 1) / zero


@pytest.mark.parametrize("divisor", [2.0, I, x(3, 2)])
def test_division_by_anything_else_is_a_type_error(divisor):
    with pytest.raises(TypeError):
        x(3, 1) / divisor


# p == mv was False while (p - mv).is_zero() was True: __eq__ lifted exact scalars only
def test_equality_lifts_a_multivector_as_the_arithmetic_does():
    mv = Multivector(2, {0b11: 2})
    p = MPoly.constant(2, mv, CLIFFORD)
    assert (p - mv).is_zero()
    assert p == mv and mv == p
    assert p != Multivector(2, {0b11: 3})
    assert x(2, 1, CLIFFORD) != mv
    # a Multivector is no coefficient of a gaussian polynomial, as in p - mv
    with pytest.raises(TypeError, match="clifford ring"):
        MPoly.constant(2, 2) == mv


# the sum starts at Fraction(0), so a constant term, whose product of powers is the
# int 1, still gives a Fraction
@pytest.mark.parametrize("ring", [GAUSSIAN, CLIFFORD])
def test_exact_eval_of_a_constant_at_an_int_point_is_exact(ring):
    value = MPoly.constant(2, Fraction(1, 3), ring).eval((1, 2))
    if ring == GAUSSIAN:
        assert type(value) is Fraction and value == Fraction(1, 3)
    else:
        assert value.is_exact() and value == Multivector(2, {0: Fraction(1, 3)})


def _term_by_term(p, point):
    """{blade: sum of coeff * prod of x_i ** e_i}, the factors multiplied in ascending i."""
    acc = {}
    for (exps, blade), coeff in p.terms.items():
        mono = 1.0
        for v, e in zip(point, exps):
            if e:
                mono *= v ** e
        acc[blade] = acc.get(blade, 0.0) + float(coeff) * mono
    return acc


def test_float_eval_is_the_term_by_term_product_bit_for_bit():
    rng = np.random.default_rng(35)
    h = harm_basis(BasisIndex((2, 3)))
    for _ in range(20):
        point = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
        p = rnd_clifford_poly(rng, 3, 5)
        assert repr(p.eval(point)) == repr(Multivector(3, _term_by_term(p, point)))
        blades = _term_by_term(h, point)
        assert repr(h.eval(point)) == repr(complex(blades[0], blades[0b11]))
