"""The gaussian ring stores i as the blade e12: every stored coefficient is a Fraction.

A complex coefficient a + b*i of a gaussian polynomial is a on blade 0 and
b on E12 = e_1 e_2, which squares to -1.  GaussianRational is accepted and
returned only at the boundary (constructor, coeff, eval, text and JSON), and
the clifford ring, whose coefficients are rational, refuses it.
"""

from fractions import Fraction

import pytest

from gtbasis import (CLIFFORD, FACTORIAL, GAUSSIAN, PLAIN, BasisIndex, GaussianRational,
                     MonIndex, MPoly, Multivector, enumerate_mon_indices, gf_harm_series,
                     gf_mon_series, harm_basis, iter_multi_indices,
                     mon_basis)
from gtbasis.clifford import E12
from gtbasis.harmonics import _base2
from gtbasis.scalars import make_gaussian

I = make_gaussian(0, 1)
NORMS = (FACTORIAL, PLAIN)


def _all_fractions(poly: MPoly) -> bool:
    return all(type(c) is Fraction for c in poly.terms.values())


def _harmonics(m: int, deg_max: int) -> list:
    return [harm_basis(BasisIndex(k, sign, norm))
            for norm in NORMS for sign in (+1, -1)
            for k in iter_multi_indices(m - 1, deg_max)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_harmonic_basis_terms_are_fractions(m):
    polys = _harmonics(m, 3)
    assert any(any(blade == E12 for _, blade in p.terms) for p in polys)
    assert all(_all_fractions(p) for p in polys)
    for p in polys[:6]:
        for q in polys[-6:]:
            assert _all_fractions(p * q)
            assert _all_fractions(p.conjugate() * q)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_monogenic_basis_terms_are_fractions(m):
    polys = [mon_basis(idx) for norm in NORMS for idx in enumerate_mon_indices(m, 3, norm)]
    assert all(_all_fractions(p) for p in polys)
    for p in polys[:6]:
        for q in polys[-6:]:
            assert _all_fractions(p * q)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("norm", NORMS)
def test_harmonic_series_terms_are_fractions(sign, norm):
    series = gf_harm_series(3, 3, sign, norm)
    assert all(_all_fractions(p) for p in series.terms.values())
    assert all(_all_fractions(p * q) for p in series.terms.values()
               for q in series.terms.values())


def test_harmonic_and_monogenic_bases_share_one_builder():
    assert _base2(-1, GAUSSIAN).terms == _base2(-1, CLIFFORD).terms
    assert _base2(+1, GAUSSIAN).conjugate() == _base2(-1, GAUSSIAN)
    for norm in NORMS:
        for k2 in range(5):
            harm = harm_basis(BasisIndex((k2,), -1, norm))
            assert harm.terms == mon_basis(MonIndex((k2,), norm)).terms
        assert {k: p.terms for k, p in gf_harm_series(2, 4, -1, norm).terms.items()} == \
               {k: p.terms for k, p in gf_mon_series(2, 4, norm).terms.items()}


def test_dim1_imaginary_unit_squares_to_minus_one():
    i = MPoly.constant(1, I)
    assert i.terms == {((0,), E12): Fraction(1)}
    assert i * i == MPoly.constant(1, -1)
    assert (i * i).terms == {((0,), 0): Fraction(-1)}


def test_dim1_complex_polynomial_boundary():
    x = MPoly.variable(1, 1)
    z = make_gaussian(Fraction(1, 2), Fraction(-3, 4))
    p = x ** 2 * z + x * I + 3
    assert p.coeff((2,)) == z and isinstance(p.coeff((2,)), GaussianRational)
    assert p.coeff((1,)) == I
    assert p.coeff((0,)) == 3 and type(p.coeff((0,))) is Fraction
    assert p.conjugate() == x ** 2 * z.conjugate() - x * I + 3
    assert p.conjugate().conjugate() == p
    assert MPoly.from_json(p.to_json()) == p
    assert p.to_json()["terms"] == [
        {"exp": [0], "num": 3, "den": 1},
        {"exp": [1], "num": 0, "den": 1, "inum": 1, "iden": 1},
        {"exp": [2], "num": 1, "den": 2, "inum": -3, "iden": 4},
    ]
    assert p.eval((Fraction(2),)) == 3 + 2 * I + 4 * z
    assert p.eval((2.0,)) == pytest.approx(3 + 2j + 4 * complex(z))
    assert p.real_part() == x ** 2 * Fraction(1, 2) + 3
    assert p.imag_part() == x ** 2 * Fraction(-3, 4) + x
    with pytest.raises(ValueError):
        p.to_clifford()


def test_eval_return_types():
    x1, x2 = MPoly.variable(2, 1), MPoly.variable(2, 2)
    real = x1 ** 2 - x2 * Fraction(1, 3)
    value = real.eval((0.5, 0.25))
    assert type(value) is float and value == pytest.approx(0.25 - 0.25 / 3)
    assert type(real.eval((Fraction(1, 2), 1))) is Fraction
    cplx = x1 + x2 * I
    value = cplx.eval((0.5, 0.25))
    assert type(value) is complex and value == complex(0.5, 0.25)
    assert cplx.eval((1, 2)) == make_gaussian(1, 2)
    imaginary_only = x2 * I
    assert type(imaginary_only.eval((0.5, 0.25))) is complex
    assert imaginary_only.eval((0.5, 0.25)) == 0.25j


def test_clifford_ring_refuses_complex_scalar():
    with pytest.raises((TypeError, ValueError)):
        MPoly(2, CLIFFORD, {(1, 0): I})
    with pytest.raises((TypeError, ValueError)):
        MPoly.constant(2, make_gaussian(1, 1), CLIFFORD)


def test_clifford_ring_refuses_complex_multivector():
    with pytest.raises((TypeError, ValueError)):
        MPoly(2, CLIFFORD, {(1, 0): Multivector(2, {0b01: I})})


def test_clifford_ring_refuses_complex_scale():
    p = MPoly.variable(2, 1, CLIFFORD)
    with pytest.raises((TypeError, ValueError)):
        p.scale(I)
    with pytest.raises((TypeError, ValueError)):
        p * make_gaussian(2, -1)


def test_clifford_ring_refuses_complex_json_entry():
    data = {"m": 2, "ring": CLIFFORD,
            "terms": [{"exp": [1, 0], "blade": 1, "num": 1, "den": 1, "inum": 1, "iden": 2}]}
    with pytest.raises((TypeError, ValueError)):
        MPoly.from_json(data)
