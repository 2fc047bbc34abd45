"""Pinned digests of the basis texts and of an exact-suite verify report.

The text digests are the sha256 of every basis polynomial's to_text() in
enumeration order, each followed by a newline; they fix the rendering, which
the JSON pins in test_pinned_outputs.py do not see.  The report digest is the
sha256 of json.dumps(report, sort_keys=True), without a trailing newline, for
the exact suites at seed 0.  A table of exact texts fixes each rule of the
one sum renderer behind Multivector.to_text and MPoly.to_text.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from gtbasis import (CLIFFORD, FACTORIAL, GAUSSIAN, PLAIN, MPoly, Multivector,
                     enumerate_harm_indices, enumerate_mon_indices, harm_basis,
                     mon_basis)
from gtbasis.scalars import make_gaussian
from gtbasis.verify import run_verify

TEXT_PINS = {
    ("harm", FACTORIAL): "313020f3ec7ef4f1f111d78b68e6bfc4269622f331e622a636c464c7961f6e6a",
    ("harm", PLAIN): "a39d4ca8ffc88959750159e51112e76292acaa1b677fd85015bc886133ce9c46",
    ("mon", FACTORIAL): "3baa452b451da445517c50b0b491672952628fc32bf96028a4ada183d51e89be",
    ("mon", PLAIN): "5cdcf207e2b0c5ba08d1b32464d20dfd5a2a30e6e95b00c50b1b044901fb54fb",
}

EXACT_REPORT_PIN = "628c3e69715dfd1c1dae2faa70b13bc5d1d89b06b69025a706a692f097436f4e"


def _text_digest(polys) -> str:
    h = hashlib.sha256()
    for poly in polys:
        h.update((poly.to_text() + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_harmonic_texts(norm):
    polys = (harm_basis(idx) for idx in enumerate_harm_indices(4, 4, norm))
    assert _text_digest(polys) == TEXT_PINS["harm", norm]


@pytest.mark.parametrize("norm", [FACTORIAL, PLAIN])
def test_monogenic_texts(norm):
    polys = (mon_basis(idx) for idx in enumerate_mon_indices(4, 3, norm))
    assert _text_digest(polys) == TEXT_PINS["mon", norm]


def test_exact_suites_report():
    report, _ = run_verify(("pde", "ortho", "extract", "lemmas"), seed=0)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == EXACT_REPORT_PIN


# value -> its to_text()
TEXTS = [
    # a constant of several blades is parenthesised, unlike a gaussian constant
    (MPoly.constant(2, Multivector(2, {0: 1, 0b11: 1}), CLIFFORD), "(1 + e12)"),
    (MPoly.constant(2, Multivector(2, {0b11: Fraction(-3, 2)}), CLIFFORD), "-3/2*e12"),
    (MPoly.constant(2, make_gaussian(Fraction(1, 2), Fraction(3, 4))), "1/2+3/4i"),
    (MPoly(2, GAUSSIAN, {(1, 0): make_gaussian(Fraction(1, 2), Fraction(3, 4)), (0, 1): -1,
                         (0, 0): make_gaussian(0, -1)}),
     "-i - x2 + (1/2+3/4i)*x1"),
    (MPoly(3, CLIFFORD, {(1, 0, 0): Multivector(3, {0: 1, 0b101: -2}),
                         (0, 1, 0): Multivector(3, {0b110: -1}), (0, 0, 1): -1}),
     "-x3 - e23*x2 + (1 - 2*e13)*x1"),
    # a float's text with a sign after its first character is parenthesised; 1.0 is not elided
    (Multivector(2, {0: 1e-5, 1: 1e-5, 2: -1.0, 3: 1.0}), "1e-05 + (1e-05)*e1 - 1.0*e2 + 1.0*e12"),
    (Multivector.zero(2), "0"),
    (MPoly.zero(2), "0"),
]


@pytest.mark.parametrize("value, text", TEXTS)
def test_exact_texts(value, text):
    assert value.to_text() == text
