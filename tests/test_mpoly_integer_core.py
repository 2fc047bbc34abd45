"""MPoly's integer core: integer numerators over one canonical denominator.

Every operation must leave the canonical form (a positive int denominator,
nonzero int numerators, gcd of all of them 1) and agree with a plain
Fraction-dict reference computed here from ``terms``, the read-only Fraction
view.  Equal polynomials built different ways must compare and hash equal.
"""

import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_mpoly_properties import PROPERTY_SETTINGS, fractions, polys, same_space

import gtbasis.mvpoly as mvpoly
from gtbasis import (CLIFFORD, GAUSSIAN, BasisIndex, MonIndex, MPoly, harm_basis,
                     mon_basis)
from gtbasis.clifford import blade_sign, conjugation_sign
from gtbasis.scalars import make_gaussian


def assert_canonical(p: MPoly) -> None:
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert all(type(c) is Fraction for c in p.terms.values())


# -- the Fraction-dict reference ----------------------------------------------------


def ref(p: MPoly) -> dict:
    return dict(p.terms)


def _clean(d: dict) -> dict:
    return {key: c for key, c in d.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return _clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ea, ba), ca in a.items():
        for (eb, bb), cb in b.items():
            key = (tuple(map(add, ea, eb)), ba ^ bb)
            out[key] = out.get(key, 0) + blade_sign(ba, bb) * ca * cb
    return _clean(out)


def ref_deriv(a: dict, i: int) -> dict:
    out: dict = {}
    for (exps, blade), c in a.items():
        if exps[i]:
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[lowered, blade] = out.get((lowered, blade), 0) + exps[i] * c
    return _clean(out)


def ref_dirac(a: dict, dim: int) -> dict:
    out: dict = {}
    for i in range(dim):
        ej = {((0,) * dim, 1 << i): Fraction(1)}
        out = ref_add(out, ref_mul(ej, ref_deriv(a, i)))
    return out


def ref_laplacian(a: dict, dim: int) -> dict:
    out: dict = {}
    for i in range(dim):
        out = ref_add(out, ref_deriv(ref_deriv(a, i), i))
    return out


# -- every operation stays canonical and matches the reference -----------------------


@PROPERTY_SETTINGS
@given(same_space(2))
def test_sum_difference_product(pq):
    p, q = pq
    for out, expected in ((p + q, ref_add(ref(p), ref(q))),
                          (p - q, ref_add(ref(p), {k: -c for k, c in ref(q).items()})),
                          (-p, {k: -c for k, c in ref(p).items()}),
                          (p * q, ref_mul(ref(p), ref(q)))):
        assert_canonical(out)
        assert ref(out) == expected


@PROPERTY_SETTINGS
@given(same_space(1), st.one_of(st.integers(-6, 6), fractions))
def test_scale(ps, factor):
    (p,) = ps
    out = p.scale(factor)
    assert_canonical(out)
    assert ref(out) == _clean({k: factor * c for k, c in ref(p).items()})


@PROPERTY_SETTINGS
@given(same_space(1))
def test_derivatives(ps):
    (p,) = ps
    for j in range(1, p.dim + 1):
        out = p.deriv(j)
        assert_canonical(out)
        assert ref(out) == ref_deriv(ref(p), j - 1)
    out = p.laplacian()
    assert_canonical(out)
    assert ref(out) == ref_laplacian(ref(p), p.dim)


@PROPERTY_SETTINGS
@given(same_space(1, rings=(CLIFFORD,)))
def test_dirac_matches_the_sum_of_generator_products(ps):
    (p,) = ps
    out = p.dirac()
    assert_canonical(out)
    assert ref(out) == ref_dirac(ref(p), p.dim)


@PROPERTY_SETTINGS
@given(same_space(1), st.integers(0, 2))
def test_conjugate_embed_and_json(ps, extra):
    (p,) = ps
    out = p.conjugate()
    assert_canonical(out)
    assert ref(out) == {(e, b): conjugation_sign(b) * c for (e, b), c in ref(p).items()}
    out = p.embed(p.dim + extra)
    assert_canonical(out)
    assert ref(out) == {(e + (0,) * extra, b): c for (e, b), c in ref(p).items()}
    out = MPoly.from_json(p.to_json())
    assert_canonical(out)
    assert ref(out) == ref(p)


@PROPERTY_SETTINGS
@given(polys(2, GAUSSIAN))
def test_real_and_imaginary_parts(p):
    for out, blade in ((p.real_part(), 0), (p.imag_part(), 3)):
        assert_canonical(out)
        assert ref(out) == {(e, 0): c for (e, b), c in ref(p).items() if b == blade}


# -- equal values are equal structures ---------------------------------------------


@PROPERTY_SETTINGS
@given(same_space(3))
def test_equal_polynomials_hash_equal(pqr):
    p, q, r = pqr
    left, right = (p * q) * r, p * (q * r)
    assert left == right and hash(left) == hash(right)
    assert (left.num, left.den) == (right.num, right.den)
    back = (p + q) - q
    assert back == p and hash(back) == hash(p)
    rescaled = p.scale(Fraction(7, 3)).scale(Fraction(3, 7))
    assert rescaled == p and hash(rescaled) == hash(p)


def test_zero_is_one_structure():
    p = MPoly(2, GAUSSIAN, {(1, 0): Fraction(2, 3)})
    zeros = [p - p, p.scale(0), MPoly.zero(2), p.deriv(2), MPoly(2, GAUSSIAN, {(0, 0): 0})]
    for z in zeros:
        assert (z.num, z.den) == ({}, 1)
        assert z == zeros[0] and hash(z) == hash(zeros[0])


def test_terms_is_a_read_only_fraction_view():
    p = MPoly(2, GAUSSIAN, {(1, 0): Fraction(1, 6), (0, 1): make_gaussian(Fraction(1, 4), 2)})
    assert (p.den, p.num) == (12, {((1, 0), 0): 2, ((0, 1), 0): 3, ((0, 1), 3): 24})
    assert p.terms == {((1, 0), 0): Fraction(1, 6), ((0, 1), 0): Fraction(1, 4),
                       ((0, 1), 3): Fraction(2)}
    with pytest.raises(TypeError):
        p.terms[(1, 0), 0] = Fraction(1)


def test_terms_length_and_keys_build_no_fraction(monkeypatch):
    polys_ = [harm_basis(BasisIndex((2, 1), +1)), mon_basis(MonIndex((1, 1, 1)))]

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(mvpoly, "Fraction", refuse)
    for p in polys_:
        view = p.terms
        assert len(view) == len(p.num) > 0
        assert list(view) == list(p.num)
        assert all(key in view for key in p.num)
        assert ((0,) * p.dim, 1 << 10) not in view


def test_a_denominator_the_numerators_absorb_is_divided_out():
    half = MPoly(2, CLIFFORD, {(2, 0): Fraction(1, 2), (0, 2): Fraction(3, 2)})
    assert half.den == 2
    two = MPoly.constant(2, 2, CLIFFORD)
    for out in (half + half, half.scale(2), half * two, two * half, half.laplacian(),
                half.dirac(), half.deriv(1), half - half.scale(-1)):
        assert_canonical(out)
        assert out.den == 1
