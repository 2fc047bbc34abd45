"""Invalid inputs are refused with a ValueError (CLI exit 2), never evaluated.

An operand of the wrong type to an inner product is a TypeError instead.
"""

import math
import subprocess
import sys
from fractions import Fraction

import pytest

from gtbasis import (CLIFFORD, GAUSSIAN, BasisIndex, DomainBox, DomainError, HSeries, MonIndex,
                     MPoly, Multivector, PiScaled,
                     binom_frac, binomial_expand, blade_name, blade_product, embedding_F,
                     embedding_f_value, embedding_X, embedding_x_value, enumerate_harm_indices,
                     enumerate_mon_indices, gamma_half, gegenbauer_poly, gf_harm_closed,
                     gf_harm_closed_m3, gf_harm_partial_sum, gf_harm_series, gf_mon_closed,
                     gf_mon_closed_m3, gf_mon_partial_sum, gf_mon_series, gf_value, inner_harm,
                     inner_mon, inner_mon_full, iter_multi_indices,
                     monomial_ball_integral, pi_power, radius_squared, series_oracle)
from gtbasis.verify import run_verify

NON_FINITE = (math.nan, math.inf, -math.inf)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gtbasis", *args],
                          capture_output=True, text=True)


def _evaluators():
    yield lambda x, h, unsafe: gf_harm_closed(3, x, h, unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_harm_closed(3, x, h, -1, "plain", unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_harm_closed_m3(x, h, unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_mon_closed(3, x, h, unsafe_domain=unsafe)
    yield lambda x, h, unsafe: gf_mon_closed_m3(x, h, "plain", unsafe_domain=unsafe)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("unsafe", [False, True])
@pytest.mark.parametrize("where", ["x", "h2", "h3"])
def test_closed_forms_reject_non_finite_points(bad, unsafe, where):
    x, h = [0.1, 0.2, 0.3], [0.1, 0.1]
    if where == "x":
        x[1] = bad
    else:
        h[int(where[1]) - 2] = bad
    for evaluate in _evaluators():
        with pytest.raises(ValueError, match="finite") as info:
            evaluate(x, h, unsafe)
        assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize("args", [
    ("--kind", "harm", "--m", "3", "--x", "nan,0,0", "--h", "0,0.1"),
    ("--kind", "harm", "--m", "3", "--x", "0,0,0", "--h", "inf,0.1"),
    ("--kind", "mon", "--m", "3", "--x", "0,0,0", "--h", "0,-inf", "--unsafe-domain"),
])
def test_cli_genfun_eval_non_finite_exits_2(args):
    proc = run_cli("genfun", "eval", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "finite" in proc.stderr


@pytest.mark.parametrize("kwargs, name", [
    ({"m_max": 1}, "m_max"),
    ({"m_max": -3}, "m_max"),
    ({"deg_max": -1}, "deg_max"),
    ({"order": -1}, "order"),
    # these gave a report of failed checks or a bare TypeError once
    ({"deg_max": 2.5}, "deg_max"),
    ({"m_max": 4.5}, "m_max"),
    ({"order": 3.0}, "order"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
])
def test_run_verify_rejects_out_of_range_parameters(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_verify(("pde",), **kwargs)


def test_run_verify_accepts_smallest_parameters():
    report, _ = run_verify(("pde", "extract"), m_max=2, deg_max=0, order=0)
    assert report["overall"] == "pass"


@pytest.mark.parametrize("flags, name", [
    (("--m-max", "1"), "m_max"),
    (("--deg-max", "-1"), "deg_max"),
    (("--order", "-1"), "order"),
])
def test_cli_verify_out_of_range_parameters_exit_2(flags, name):
    proc = run_cli("verify", "--suite", "pde", *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert name in proc.stderr


@pytest.mark.parametrize("nu, t, h", [
    (1, math.nan, 0.5),
    (1, 0.5, math.inf),
    (1, -math.inf, 0.5),
    (-1, 0.5, 0.5),
    (0, 0.5, 0.5),
    (math.inf, 0.5, 0.5),
])
def test_gegenbauer_gf_value_rejects_invalid_arguments(nu, t, h):
    with pytest.raises(ValueError, match="nu must be|must be finite"):
        gf_value(nu, t, h)


@pytest.mark.parametrize("enumerate_, args", [
    (lambda *a: list(iter_multi_indices(*a)), (-1, 2)),
])
def test_negative_parts_are_refused(enumerate_, args):
    with pytest.raises(ValueError, match="parts must be non-negative"):
        enumerate_(*args)


# the enumerations once refused m = 0 as "parts must be non-negative, got -1" and
# listed the one empty label at m = 1; DomainBox(1) was a box with no h entries
@pytest.mark.parametrize("make", [
    lambda: enumerate_harm_indices(0, 2),
    lambda: enumerate_mon_indices(0, 2),
    lambda: enumerate_harm_indices(1, 2),
    lambda: enumerate_mon_indices(1, 2),
    lambda: DomainBox(1),
    lambda: DomainBox(-3),
    lambda: DomainBox(0).contains([]),
], ids=["harm-indices-zero", "mon-indices-zero", "harm-indices-one", "mon-indices-one",
        "box-one", "box-negative", "box-zero"])
def test_dimension_below_two_is_refused(make):
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        make()


# lookups once answered the zero polynomial for an index they cannot know: past
# the truncation order (where the true coefficient is not zero), of the wrong
# length, or with a negative entry
@pytest.mark.parametrize("lookup", [
    lambda: gf_harm_series(3, 2).coefficient((3, 0)),
    lambda: gf_mon_series(3, 2).coefficient((1, 2)),
    lambda: gf_harm_series(3, 2).coefficient((1,)),
    lambda: gf_harm_series(3, 2).coefficient((1, 0, 0)),
    lambda: gf_harm_series(3, 2).coefficient((-1, 1)),
    lambda: MPoly.variable(3, 1).coeff((1,)),
    lambda: MPoly.variable(3, 1, CLIFFORD).coeff((1, 0, 0, 0)),
    lambda: MPoly.variable(3, 1).coeff((1, -1, 0)),
], ids=["past-order", "mon-past-order", "short-k", "long-k", "negative-k",
        "short-exps", "long-exps", "negative-exps"])
def test_lookups_refuse_indices_they_cannot_know(lookup):
    with pytest.raises(ValueError, match="beyond the series order|bad h multi-index|bad exponent"):
        lookup()


@pytest.mark.parametrize("evaluate, args", [
    (embedding_f_value, (3, 0, 2, [0.1, 0.2])),
    (embedding_f_value, (4, 1, -1, [0.1, 0.2, 0.3])),
    (embedding_x_value, (3, 3, 0, 2, [0.1, 0.2])),
])
def test_embedding_values_need_m_coordinates(evaluate, args):
    with pytest.raises(ValueError, match="coordinates"):
        evaluate(*args)


# ballint's helpers: each of these returned a value once (x_1^2's integral for
# 2.5 and '2', a truncated 3/2, 1 at m = 0, pi_power(-2) = -2, pi_power(1.5) = 0.5)
@pytest.mark.parametrize("m, alpha", [
    (2, (2.5, 0)),
    (2, ("2", 0)),
    (2, (Fraction(3, 2), 0)),
    (2, (2.0, 0)),
    (2, 2),
    (2, (-2, 0)),
    (2, (2,)),
    (0, ()),
    (-1, (2,)),
    (2.0, (2, 0)),
])
def test_monomial_ball_integral_rejects_bad_input(m, alpha):
    with pytest.raises(ValueError):
        monomial_ball_integral(m, alpha)


@pytest.mark.parametrize("m", [0, -2, 1.5, 2.0, "2", None])
def test_pi_power_rejects_bad_dimension(m):
    with pytest.raises(ValueError):
        pi_power(m)


@pytest.mark.parametrize("n", [2.5, 2.0, "3", Fraction(5, 2), 0, -1])
def test_gamma_half_rejects_bad_argument(n):
    with pytest.raises(ValueError):
        gamma_half(n)


# The inner products: a non-polynomial operand raised a bare AttributeError, and
# inner_mon_full's ring error named inner_mon.
_P3, _C3 = MPoly.variable(3, 1), MPoly.variable(3, 1, CLIFFORD)


@pytest.mark.parametrize("inner, p, q", [
    (inner_harm, _P3, 3),
    (inner_harm, None, _P3),
    (inner_mon, _C3, Fraction(1, 2)),
    (inner_mon, [1], _C3),
    (inner_mon_full, _C3, "x"),
    (inner_mon_full, 0, 0),
], ids=["harm-int", "harm-none", "mon-fraction", "mon-list", "full-str", "full-ints"])
def test_inner_products_refuse_non_polynomials(inner, p, q):
    with pytest.raises(TypeError, match=f"^{inner.__name__} needs MPoly operands"):
        inner(p, q)


@pytest.mark.parametrize("inner, ring, other", [
    (inner_harm, CLIFFORD, GAUSSIAN),
    (inner_mon, GAUSSIAN, CLIFFORD),
    (inner_mon_full, GAUSSIAN, CLIFFORD),
])
def test_inner_products_name_themselves_on_a_ring_mismatch(inner, ring, other):
    h = MPoly.variable(3, 1, ring)
    for p, q in ((h, h), (h, MPoly.variable(3, 1, other)), (MPoly.variable(3, 1, other), h)):
        with pytest.raises(ValueError, match=f"^{inner.__name__} needs {other}-ring polynomials"):
            inner(p, q)


@pytest.mark.parametrize("inner, ring", [
    (inner_harm, GAUSSIAN), (inner_mon, CLIFFORD), (inner_mon_full, CLIFFORD),
])
def test_inner_products_name_both_dimensions_on_a_mismatch(inner, ring):
    with pytest.raises(ValueError, match=f"^{inner.__name__}: dimension mismatch 3 != 4$"):
        inner(MPoly.variable(3, 1, ring), MPoly.variable(4, 1, ring))


class _Index:
    """An integer-like value that is not an int: operator.index accepts it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_ballint_helpers_accept_integer_like_values():
    assert monomial_ball_integral(_Index(2), [_Index(2), 0]) == monomial_ball_integral(2, (2, 0))
    assert pi_power(_Index(3)) == pi_power(3) == 2
    assert gamma_half(_Index(5)) == gamma_half(5)


# The embedding factors: a non-integral label returned a value once (F for j = 1/2
# as for j = 0, 0.22 from embedding_f_value), or raised a TypeError or a misleading
# "k must be non-negative" / "x needs at least 3.5 coordinates".
_X3 = [0.1, 0.2, 0.3]


@pytest.mark.parametrize("evaluate, args, where, bad", [
    (embedding_F, (3, 0, 2), 1, 0.5),
    (embedding_F, (3, 0, 2), 1, Fraction(1, 2)),
    (embedding_F, (3, 0, 2), 2, 2.5),
    (embedding_F, (3, 0, 2), 2, 2.0),
    (embedding_F, (3, 0, 2), 0, 3.0),
    (embedding_X, (3, 0, 2), 1, 0.5),
    (embedding_X, (3, 0, 2), 1, Fraction(1, 2)),
    (embedding_X, (3, 0, 2), 2, 2.0),
    (embedding_f_value, (3, 0, 2, _X3), 1, 0.5),
    (embedding_f_value, (3, 0, 2, _X3), 2, 2.5),
    (embedding_f_value, (3, 0, 2, _X3), 0, 3.5),
    (embedding_x_value, (3, 3, 0, 2, _X3), 2, 0.5),
    (embedding_x_value, (3, 3, 0, 2, _X3), 3, "2"),
])
def test_embedding_factors_refuse_non_integer_labels(evaluate, args, where, bad):
    evaluate(*args)  # cached first, so an equal-hashing label cannot hit the cache
    with pytest.raises(ValueError, match="must be an integer"):
        evaluate(*args[:where], bad, *args[where + 1:])


@pytest.mark.parametrize("evaluate, args", [
    (embedding_X, (3, 0, -1)),
    (embedding_x_value, (3, 3, 0, -1, _X3)),
])
def test_clifford_embedding_factors_need_k_at_least_zero(evaluate, args):
    with pytest.raises(ValueError, match="k must be >= 0"):
        evaluate(*args)


def test_embedding_factors_accept_integer_like_labels():
    assert embedding_F(_Index(4), _Index(1), _Index(3)) == embedding_F(4, 1, 3)
    assert embedding_X(_Index(4), _Index(1), _Index(3)) == embedding_X(4, 1, 3)
    assert embedding_f_value(_Index(3), _Index(0), _Index(2), _X3) == \
        embedding_f_value(3, 0, 2, _X3)


# Basis labels, exponents and series indices: each of these was truncated with
# int() once, to the polynomial or term of another label
_ONE3 = MPoly.constant(3, 1)


@pytest.mark.parametrize("make, args", [
    (BasisIndex, ((1.5, 2),)),
    (BasisIndex, ((Fraction(1, 2), 0),)),
    (MonIndex, ((0.7, 1),)),
    (MonIndex, ((1, 2.0),)),
    (MPoly.monomial, (2, (1.5, 0), 1)),
    (MPoly.monomial, (2, (1, "0"), 1)),
    (HSeries, (3, 2, "gaussian", {(0.5, 1): _ONE3})),
    (HSeries, (3, 2, "gaussian", {(1.0, 0): _ONE3})),
])
def test_labels_and_exponents_refuse_non_integers(make, args):
    with pytest.raises(ValueError, match="must be an integer"):
        make(*args)


def test_labels_and_exponents_accept_integer_like_values():
    assert BasisIndex((_Index(1), 2)) == BasisIndex((1, 2))
    assert MonIndex((_Index(0), _Index(1))) == MonIndex((0, 1))
    assert MPoly.monomial(2, (_Index(1), 0), 1) == MPoly.variable(2, 1)
    assert HSeries(3, 2, terms={(_Index(0), 1): _ONE3}).terms == {(0, 1): _ONE3}


_C1, _C2 = MPoly.variable(3, 3).scale(-2), radius_squared(3)


# The last counts: a document naming pi^(5/4) read back as pi, a series of order
# 1.5 was written out again, and C_k^nu for k = 2.0 was a TypeError on a cold
# cache but C_2^1 once C_2^1 was cached
@pytest.mark.parametrize("make", [
    lambda: PiScaled(1, 1.5),
    lambda: PiScaled(0, 0.5),
    lambda: PiScaled.from_json({"q_num": 1, "q_den": 2, "sqrt_pi_pow": 2.5}),
    lambda: HSeries(3, 1.5),
    lambda: HSeries(3.0, 2),
    lambda: HSeries.from_json({"m": 3, "order": 1.5, "terms": []}),
    lambda: gegenbauer_poly(1, 2.5),
    lambda: gegenbauer_poly(1, Fraction(2)),
    lambda: DomainBox(3.5).bound(3),
    lambda: DomainBox(3.0).bounds(),
    lambda: gf_harm_closed(3.0, [0.1, 0.2, 0.3], [0.1, 0.1], unsafe_domain=True),
    lambda: gf_mon_closed(3.0, [0.1, 0.2, 0.3], [0.1, 0.1]),
    lambda: enumerate_mon_indices(3.0, 2),
    lambda: enumerate_harm_indices(3, 2.0),
    lambda: (binom_frac(Fraction(1, 2), 2), binom_frac(Fraction(1, 2), 2.0)),
    lambda: binom_frac(1, 2.5),
    lambda: series_oracle(1, 2.0),
    lambda: gf_harm_series(3, 2.0),
    lambda: gf_mon_series(3, 1.5),
    lambda: gf_harm_series(3.0, 2),
    lambda: gf_harm_partial_sum(3, [0.1, 0.2, 0.3], [0.1, 0.1], 2.5),
    lambda: gf_mon_partial_sum(3.0, [0.1, 0.2, 0.3], [0.1, 0.1], 2),
    lambda: list(iter_multi_indices(2, 2.5)),
    lambda: MPoly.variable(2.0, 1),
    lambda: MPoly.variable(2, 1.0),
    lambda: radius_squared(2.5),
    lambda: MPoly.variable(2, 1).embed(3.0),
    lambda: HSeries.one(3.0, 2),
    lambda: binomial_expand(-1, _C1, _C2, 3, 2.0),
    lambda: binomial_expand(-1, _C1, _C2, 3.0, 2),
    lambda: enumerate_harm_indices(3.0, 2),
    lambda: MPoly.variable(2, 1).deriv(1.0),
    lambda: Multivector(2.0, {}),
    lambda: Multivector.basis_vector(2, 1.0),
    lambda: Multivector(2, {1.0: 1}),
    lambda: Multivector.blade(2, 1.5),
    lambda: blade_name(1.5),
    lambda: blade_product(1, 2, 3.0),
    lambda: blade_product(1.0, 2, 3),
], ids=["pi-power", "zero-pi-power", "pi-power-json", "series-order", "series-dim",
        "series-order-json", "gegenbauer-k", "gegenbauer-k-fraction", "box-dim",
        "box-dim-float", "closed-dim-unsafe", "closed-dim", "mon-indices-dim",
        "harm-indices-degree", "binom-n-warm", "binom-n", "oracle-order",
        "harm-series-order", "mon-series-order", "harm-series-dim", "partial-sum-order",
        "partial-sum-dim", "multi-indices-total", "variable-dim", "variable-index",
        "radius-dim", "embed-dim", "series-one-dim", "binomial-order", "binomial-var",
        "harm-indices-dim", "deriv-index", "multivector-dim", "basis-vector-index",
        "multivector-mask", "blade-mask", "blade-name-mask", "blade-product-dim",
        "blade-product-mask"])
def test_counts_refuse_non_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


# binomial_expand expanded the binary value of 0.1 as if exact
# (3602879701896397/36028797018963968), parsed "1/3" and raised a bare
# OverflowError for inf
@pytest.mark.parametrize("alpha", [0.1, -1.0, "1/3", math.inf, complex(-1, 0)],
                         ids=["float", "integral-float", "str", "inf", "complex"])
def test_binomial_expand_refuses_an_inexact_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be an int or a Fraction"):
        binomial_expand(alpha, _C1, _C2, 3, 2)


def test_binomial_expand_takes_ints_and_fractions():
    assert binomial_expand(-1, _C1, _C2, 3, 2) == binomial_expand(Fraction(-1), _C1, _C2, 3, 2)
    half = binomial_expand(Fraction(1, 2), _C1, _C2, 3, 1)
    assert half.coefficient((0, 1)) == _C1.scale(Fraction(1, 2))


@pytest.mark.parametrize("nu", [1, Fraction(7, 3)])
def test_gegenbauer_poly_refuses_a_float_degree_on_a_warm_cache_too(nu):
    with pytest.raises(ValueError, match="must be an integer"):
        gegenbauer_poly(nu, 2.0)
    gegenbauer_poly(Fraction(nu), 2)
    with pytest.raises(ValueError, match="must be an integer"):
        gegenbauer_poly(nu, 2.0)


def test_counts_accept_integer_like_values():
    assert PiScaled(1, _Index(2)).s == 2
    assert HSeries(_Index(3), _Index(2)).order == 2
    assert gegenbauer_poly(1, _Index(2)) == gegenbauer_poly(Fraction(1), 2)
    x, h = [0.1, 0.2, 0.3], [0.1, 0.1]
    assert DomainBox(_Index(3)).bounds() == DomainBox(3).bounds()
    assert binom_frac(Fraction(1, 2), _Index(2)) == Fraction(-1, 8)
    assert series_oracle(1, _Index(3)) == series_oracle(1, 3)
    assert gf_harm_closed(_Index(3), x, h) == gf_harm_closed(3, x, h)
    assert gf_harm_partial_sum(_Index(3), x, h, _Index(2)) == gf_harm_partial_sum(3, x, h, 2)
    assert gf_mon_partial_sum(_Index(3), x, h, _Index(2)) == gf_mon_partial_sum(3, x, h, 2)
    assert gf_mon_series(_Index(3), _Index(2)) == gf_mon_series(3, 2)
    assert list(iter_multi_indices(_Index(2), _Index(2))) == list(iter_multi_indices(2, 2))
    assert MPoly.variable(_Index(2), _Index(1)) == MPoly.variable(2, 1)
    assert radius_squared(_Index(2)) == radius_squared(2)
    assert MPoly.variable(2, 1).embed(_Index(3)) == MPoly.variable(3, 1)
    assert HSeries.one(_Index(3), 2) == HSeries.one(3, 2)
    assert binomial_expand(-1, _C1, _C2, _Index(3), _Index(2)) == \
        binomial_expand(-1, _C1, _C2, 3, 2)
    assert MPoly.variable(2, 1).deriv(_Index(1)) == MPoly.constant(2, 1)
    assert Multivector(_Index(2), {_Index(1): 0.5}) == Multivector(2, {1: 0.5})
    assert Multivector.basis_vector(_Index(2), _Index(1)) == Multivector.basis_vector(2, 1)
    assert Multivector.blade(2, _Index(3)) == Multivector.blade(2, 3)
    assert blade_name(_Index(5)) == "e13"
    assert blade_product(_Index(1), _Index(2), _Index(3)) == (1, 3)


# blade_name(-1) was 'e1'
@pytest.mark.parametrize("make", [
    lambda: blade_name(-1),
    lambda: Multivector(2, {-1: 1.0}),
    lambda: Multivector.blade(2, -3),
    lambda: blade_product(1, -1, 2),
], ids=["blade-name", "multivector", "blade", "blade-product"])
def test_negative_blade_masks_are_refused(make):
    with pytest.raises(ValueError, match="^blade mask -0b1+ is negative"):
        make()


# Each of these was a KeyError, a TypeError or a ZeroDivisionError
_TERM = {"exp": [0, 0], "num": 1, "den": 1}


@pytest.mark.parametrize("read, document", [
    (MPoly.from_json, {}),
    (MPoly.from_json, {"m": 2, "ring": GAUSSIAN, "terms": [{"exp": [0, 0], "den": 1}]}),
    (MPoly.from_json, {"m": 2, "ring": GAUSSIAN, "terms": [dict(_TERM, den=0)]}),
    (MPoly.from_json, {"m": 2, "ring": CLIFFORD, "terms": [dict(_TERM, blade=1.0)]}),
    (MPoly.from_json, {"m": 2, "ring": GAUSSIAN, "terms": [dict(_TERM, num=1.5)]}),
    (MPoly.from_json, {"m": 2, "ring": GAUSSIAN, "terms": [[0, 0]]}),
    (HSeries.from_json, {}),
    (HSeries.from_json, {"m": 3, "order": 1, "terms": [{"k": 0}]}),
    (PiScaled.from_json, {}),
    (PiScaled.from_json, {"q_num": 1, "q_den": 0, "sqrt_pi_pow": 0}),
    (PiScaled.from_json, None),
], ids=["mpoly-empty", "mpoly-no-num", "mpoly-zero-den", "mpoly-float-blade",
        "mpoly-float-num", "mpoly-list-term", "hseries-empty", "hseries-int-k",
        "piscaled-empty", "piscaled-zero-den", "piscaled-none"])
def test_malformed_json_documents_are_refused(read, document):
    with pytest.raises(ValueError, match=f"^malformed {read.__self__.__name__} document: "):
        read(document)
