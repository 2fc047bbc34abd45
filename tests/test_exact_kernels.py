"""The exact kernels on seeded random polynomials: derivatives and ball pairings.

``deriv``, ``laplacian`` and ``dirac`` read cached monomial lowerings and a
cached table of generator products; the references below rebuild every
lowered exponent tuple and every sign per term, as the plain formulas do.
A derivative must give the same numerators in the same order, over the same
denominator.  The ball pairing packs exponent vectors into int fields sized
from its two operands; the cases below make exponent sums cross a power of
two, so a field one bit too narrow would carry into its neighbour.
"""

import random
from fractions import Fraction

import pytest
from test_ball_pairing import assert_pairings_match

from gtbasis import CLIFFORD, GAUSSIAN, MPoly, Multivector
from gtbasis.ballint import _classes, _index
from gtbasis.clifford import blade_sign
from gtbasis.scalars import make_gaussian

RINGS = (GAUSSIAN, CLIFFORD)
DIMS = range(1, 7)


def _fraction(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def random_poly(rng, m: int, ring: str, terms: int = 12, top: int = 20) -> MPoly:
    """Up to `terms` terms with exponents up to `top`; clifford terms carry random blades."""
    acc: dict = {}
    for _ in range(rng.randint(1, terms)):
        exps = tuple(rng.randint(0, top) if rng.random() < 0.7 else 0 for _ in range(m))
        if ring == CLIFFORD:
            coeff = Multivector.blade(m, rng.randrange(1 << m), _fraction(rng))
            acc[exps] = acc.get(exps, Multivector.zero(m)) + coeff
        else:
            coeff = make_gaussian(_fraction(rng), _fraction(rng) if m > 1 else 0)
            acc[exps] = acc.get(exps, 0) + coeff
    return MPoly(m, ring, acc)


def deriv_reference(p: MPoly, j: int) -> MPoly:
    i = j - 1
    num = {}
    for (exps, blade), n in p.num.items():
        e = exps[i]
        if e:
            num[exps[:i] + (e - 1,) + exps[i + 1:], blade] = n * e
    return MPoly._reduced(p.dim, p.ring, num, p.den)


def laplacian_reference(p: MPoly) -> MPoly:
    acc: dict = {}
    for (exps, blade), n in p.num.items():
        for i, e in enumerate(exps):
            if e > 1:
                key = (exps[:i] + (e - 2,) + exps[i + 1:], blade)
                acc[key] = acc.get(key, 0) + n * (e * (e - 1))
    return MPoly._reduced(p.dim, p.ring, acc, p.den)


def dirac_reference(p: MPoly) -> MPoly:
    acc: dict = {}
    for (exps, blade), n in p.num.items():
        for i, e in enumerate(exps):
            if e:
                ej = 1 << i
                key = (exps[:i] + (e - 1,) + exps[i + 1:], blade ^ ej)
                acc[key] = acc.get(key, 0) + (n * e if blade_sign(ej, blade) > 0 else -n * e)
    return MPoly._reduced(p.dim, CLIFFORD, acc, p.den)


def assert_same_poly(got: MPoly, expected: MPoly) -> None:
    assert got == expected
    assert (got.den, list(got.num.items())) == (expected.den, list(expected.num.items()))
    assert got.to_json() == expected.to_json()


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", DIMS)
def test_derivatives_equal_the_per_term_formulas(m, ring):
    rng = random.Random(f"derivatives:{m}:{ring}")
    for _ in range(25):
        p = random_poly(rng, m, ring)
        for j in range(1, m + 1):
            assert_same_poly(p.deriv(j), deriv_reference(p, j))
        assert_same_poly(p.laplacian(), laplacian_reference(p))
        if ring == CLIFFORD:
            assert_same_poly(p.dirac(), dirac_reference(p))


@pytest.mark.parametrize("ring", RINGS)
def test_p_to_the_n_equals_repeated_multiplication(ring):
    rng = random.Random(f"power:{ring}")
    p = random_poly(rng, 3, ring, terms=3, top=2)
    product = MPoly.constant(3, 1, ring)
    for n in range(10):
        power = p ** n  # squares add terms in another order: compare values, not num order
        assert power == product and power.to_json() == product.to_json()
        product = product * p


# -- the packed ball pairing -----------------------------------------------------------


def _monomial(m: int, ring: str, exps, blade: int = 0) -> MPoly:
    coeff = Multivector.blade(m, blade, 1) if ring == CLIFFORD else 1
    return MPoly(m, ring, {tuple(exps): coeff})


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("low, high", [(7, 9), (15, 1), (31, 33), (8, 8), (7, 7)])
def test_exponent_sums_that_cross_a_power_of_two(low, high, ring):
    rng = random.Random(f"carry:{low}:{high}:{ring}")
    for m in DIMS:
        # every variable of p at `low` meets `high` in q, so each field sum is low + high
        p = _monomial(m, ring, [low] * m) + random_poly(rng, m, ring, terms=4, top=low)
        q = _monomial(m, ring, [high] * m, (1 << m) - 1) + random_poly(rng, m, ring, 4, high)
        for a, b in ((p, q), (q, p), (p, p), (q, q)):
            assert_pairings_match(a, b)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", DIMS)
def test_a_high_degree_operand_against_a_constant(m, ring):
    rng = random.Random(f"constant:{m}:{ring}")
    high = _monomial(m, ring, [40] + [2] * (m - 1)) + random_poly(rng, m, ring, top=63)
    constant = MPoly.constant(m, Fraction(-3, 7), ring)
    for a, b in ((high, constant), (constant, high)):
        assert_pairings_match(a, b)


def _unpacked(classes: dict, m: int, width: int) -> set:
    mask = (1 << width) - 1
    return {(tuple(packed >> (i * width) & mask for i in range(m)), blade, n)
            for blades in classes.values()
            for blade, terms in blades.items() for packed, n in terms}


@pytest.mark.parametrize("ring", RINGS)
def test_an_index_is_read_only_at_the_width_it_was_built_at(ring):
    m = 3
    rng = random.Random(f"widths:{ring}")
    p = random_poly(rng, m, ring, top=3)
    own = _index(p)[0]
    # own widths 1, 6, 4 and 10: the pairs are at widths 3, 6, 4 and 10
    partners = [MPoly.constant(m, 2, ring)] + [
        _monomial(m, ring, (top, 0, 1)) + random_poly(rng, m, ring, top=top)
        for top in (30, 5, 300)]
    for _ in range(2):
        for q in partners:
            assert_pairings_match(p, q)
            assert_pairings_match(q, p)
    widths = _index(p)[1]
    assert own == 3 and sorted(widths) == [3, 4, 6, 10]
    assert len({id(classes) for classes in widths.values()}) == len(widths)
    terms = {(exps, blade, n) for (exps, blade), n in p.num.items()}
    for width, classes in widths.items():
        assert _classes(p, width) is classes
        assert _unpacked(classes, m, width) == terms
