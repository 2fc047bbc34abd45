"""Ring laws of MPoly on random small polynomials (m <= 3), both rings."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gtbasis import CLIFFORD, GAUSSIAN, MPoly, Multivector
from gtbasis.scalars import make_gaussian

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def polys(draw, m: int, ring: str) -> MPoly:
    """A polynomial of up to 5 terms, exponents <= 3, through the validating constructor."""
    terms: dict = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(m))
        if ring == CLIFFORD:
            coeff = Multivector.blade(m, draw(st.integers(0, (1 << m) - 1)), draw(fractions))
            terms[exps] = terms.get(exps, Multivector.zero(m)) + coeff
        else:
            coeff = make_gaussian(draw(fractions), draw(fractions))
            terms[exps] = terms.get(exps, 0) + coeff
    return MPoly(m, ring, terms)


@st.composite
def same_space(draw, count: int, rings=(GAUSSIAN, CLIFFORD)) -> list:
    m = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(rings))
    return [draw(polys(m, ring)) for _ in range(count)]


@PROPERTY_SETTINGS
@given(same_space(3))
def test_product_is_associative(pqr):
    p, q, r = pqr
    assert (p * q) * r == p * (q * r)


@PROPERTY_SETTINGS
@given(same_space(3))
def test_product_distributes_over_sum(pqr):
    p, q, r = pqr
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@PROPERTY_SETTINGS
@given(same_space(1, rings=(CLIFFORD,)))
def test_dirac_squared_is_minus_laplacian(ps):
    (p,) = ps
    assert -p.dirac().dirac() == p.laplacian()


@PROPERTY_SETTINGS
@given(same_space(1))
def test_json_round_trip(ps):
    (p,) = ps
    assert MPoly.from_json(p.to_json()) == p
