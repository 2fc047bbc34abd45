"""Blade products, multivector arithmetic and Clifford conjugation."""

from fractions import Fraction

import numpy as np
import pytest

from gtbasis import Multivector, blade_name, blade_product


def brute_force_blade_product(a: int, b: int, dim: int):
    """Independent sign oracle: list the generators, bubble-sort with e_j e_j = -1."""
    gens = [j for j in range(dim) if a >> j & 1] + [j for j in range(dim) if b >> j & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gens) - 1:
            if gens[i] == gens[i + 1]:
                del gens[i:i + 2]
                sign = -sign
                changed = True
            elif gens[i] > gens[i + 1]:
                gens[i], gens[i + 1] = gens[i + 1], gens[i]
                sign = -sign
                changed = True
            else:
                i += 1
    mask = 0
    for j in gens:
        mask |= 1 << j
    return sign, mask


def rnd_frac(rng):
    return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))


def rnd_mv(rng, dim):
    return Multivector(dim, {mask: rnd_frac(rng) for mask in range(1 << dim)})


def test_generator_squares_to_minus_one():
    assert blade_product(0b1, 0b1, 3) == (-1, 0)


def test_canonical_product_no_contraction():
    assert blade_product(0b01, 0b10, 3) == (1, 0b11)


def test_bivector_squares_to_minus_one():
    # e1 e2 e1 e2 = -e1 e1 e2 e2 = -1
    assert blade_product(0b11, 0b11, 3) == (-1, 0)
    assert brute_force_blade_product(0b11, 0b11, 3) == (-1, 0)


def test_blade_product_matches_brute_force_oracle():
    for dim in range(1, 6):
        for a in range(1 << dim):
            for b in range(1 << dim):
                assert blade_product(a, b, dim) == brute_force_blade_product(a, b, dim)


def test_blade_mask_exceeding_dim_rejected():
    with pytest.raises(ValueError):
        blade_product(0b100, 0b1, 2)


def test_blade_names():
    assert blade_name(0) == "1"
    assert blade_name(0b101) == "e13"


def test_vector_products():
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    e3 = Multivector.basis_vector(3, 3)
    assert e1 * e2 == Multivector.blade(3, 0b11)
    v = Multivector.vector(3, (1, 2, 0))
    assert v * e3 == Multivector(3, {0b101: 1, 0b110: 2})


def test_inverse_of_one_plus_half_e12():
    mv = Multivector(2, {0: 1, 0b11: Fraction(1, 2)})
    candidate = Multivector(2, {0: Fraction(4, 5), 0b11: Fraction(-2, 5)})
    assert mv * candidate == Multivector.scalar(2, 1)
    assert candidate * mv == Multivector.scalar(2, 1)


def test_associativity_exhaustive_blades_dim3():
    for dim in (1, 2, 3):
        blades = [Multivector.blade(dim, mask) for mask in range(1 << dim)]
        for a in blades:
            for b in blades:
                for c in blades:
                    assert (a * b) * c == a * (b * c)


def test_associativity_random_rational_multivectors():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        for _ in range(10):
            a, b, c = (rnd_mv(rng, dim) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_distributivity_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b, c = (rnd_mv(rng, 3) for _ in range(3))
        assert a * (b + c) == a * b + a * c


def test_conjugation_signs():
    assert Multivector.scalar(3, 1).conjugate() == Multivector.scalar(3, 1)
    e1 = Multivector.basis_vector(3, 1)
    assert e1.conjugate() == -e1
    e12 = Multivector.blade(3, 0b11)
    assert e12.conjugate() == -e12
    # cross-check the derived case: conj(e1 e2) = conj(e2) conj(e1) = e2 e1 = -e12
    e2 = Multivector.basis_vector(3, 2)
    assert (e1 * e2).conjugate() == (-e2) * (-e1)
    e123 = Multivector.blade(3, 0b111)
    assert e123.conjugate() == e123


def test_conjugation_is_anti_automorphism():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rnd_mv(rng, 3), rnd_mv(rng, 3)
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_vector_square_is_minus_norm():
    rng = np.random.default_rng(10)
    for dim in (2, 3, 4):
        coords = [rnd_frac(rng) for _ in range(dim)]
        v = Multivector.vector(dim, coords)
        assert v * v == Multivector.scalar(dim, -sum(c * c for c in coords))


def test_scalar_part():
    assert (Multivector.scalar(3, 3) + Multivector.basis_vector(3, 1)).scalar_part() == 3
    assert Multivector.blade(3, 0b11).scalar_part() == 0
    e1 = Multivector.basis_vector(3, 1)
    assert (e1 * e1).scalar_part() == -1


def test_mode_mixing_rejected():
    with pytest.raises(ValueError):
        Multivector(2, {0: Fraction(1), 0b1: 0.5})


# a float scalar compared unequal (Multivector(2, {0: 0.5}) == 0.5 was False), although
# the arithmetic lifts every scalar to the scalar multivector
def test_equality_lifts_every_scalar():
    assert Multivector(2, {0: 0.5}) == 0.5
    assert Multivector(2, {0: 1}) == 1.0
    assert Multivector(2, {0: 1.0}) == 1
    assert Multivector(2, {0: 1}) == Fraction(1)
    assert Multivector(2, {}) == 0.0
    assert Multivector(2, {0: 0.5}) != 0.25
    assert Multivector(2, {0: 1.0, 1: 1.0}) != 1.0
    assert Multivector(2, {0: float("nan")}) != float("nan")
    assert Multivector(2, {0: 1}) != "1"


def test_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        Multivector.scalar(2, 1) * Multivector.scalar(3, 1)
