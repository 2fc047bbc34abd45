"""Machine verification of every identity behind the basis construction.

Each check is a plain function returning pass/fail plus a first-counterexample
witness, called with its rng and the params its report prints.  A check's rng
is ``random.Random`` seeded with the JSON text of [seed, check name, params],
so each check has its own stream, the same on every Python version and
independent of the order the checks run in.  A passing result reports only
its name, params and status, so a passing report holds no sampled value:
only the witness of a failing check depends on the stream.  Every check and its
ranges live in one table, ``_TABLE``, where each range is a function of
(m_max, deg_max, order).
"""

from __future__ import annotations

import functools
import json
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product

from .errors import _at_least
from .gegenbauer import gegenbauer_poly, gf_value, series_oracle
from .harmonics import (FACTORIAL, PLAIN, BasisIndex, DomainBox, _base2, _sum_squares,
                        embedding_F, enumerate_harm_indices, gf_harm_closed,
                        gf_harm_closed_m3, gf_harm_partial_sum, gf_harm_series,
                        harm_basis, iter_multi_indices)
from .hseries import HSeries, _lift_factor, binomial_expand, power_series
from .monogenics import (MonIndex, embedding_X, enumerate_mon_indices,
                         gf_mon_closed, gf_mon_closed_m3, gf_mon_partial_sum,
                         gf_mon_series, mon_basis)
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly
from .ballint import inner_harm, inner_mon

SUITES = ("pde", "ortho", "extract", "gf", "lemmas")

GEGENBAUER_NUS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))
NUM_POINTS = 20
SERIES_ORDER = 30
GF_TOL = 1e-8
RECUR_TOL = 1e-12


@dataclass
class CheckResult:
    name: str
    params: dict
    status: str
    witness: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "params": self.params, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Check:
    name: str
    params: dict
    fn: object = field(repr=False)

    def run(self, seed: int) -> CheckResult:
        """Run the check; an exception it raises becomes a failed result.

        The witness of such a failure is "<ExcType>: <message>", so that the
        report stays deterministic and the other checks still run.
        """
        rng = _check_rng(seed, self.name, self.params)
        try:
            ok, witness = self.fn(rng)
        except Exception as exc:
            return CheckResult(self.name, self.params, "fail",
                               f"{type(exc).__name__}: {exc}")
        return CheckResult(self.name, self.params, "pass" if ok else "fail", witness)


def _check_rng(seed: int, name: str, params: dict) -> random.Random:
    # a str seed is hashed with SHA-512: the same stream on every Python version
    return random.Random(json.dumps([seed, name, params], sort_keys=True))


# -- random data -------------------------------------------------------------


def _random_ball_point(rng, m: int) -> list:
    while True:
        x = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        if _sum_squares(x) <= 1.0:
            return x


def _random_h(rng, m: int, h2_bound: float) -> list:
    box = DomainBox(m)
    h = [rng.uniform(-h2_bound, h2_bound)]
    for r in range(3, m + 1):
        b = float(box.bound(r)) / 2.0
        h.append(rng.uniform(-b, b))
    return h


def _random_fraction(rng) -> Fraction:
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))


def _random_clifford_poly(rng, m: int, deg: int, nterms: int = 6) -> MPoly:
    terms: dict = {}
    for _ in range(nterms):
        exps = []
        left = deg
        for _ in range(m):
            e = rng.randrange(0, left + 1)
            exps.append(e)
            left -= e
        key = (tuple(exps), rng.randrange(0, 1 << m))
        terms[key] = terms.get(key, 0) + _random_fraction(rng)
    return MPoly._make(m, CLIFFORD, terms)


# -- what the harmonic and monogenic checks differ in -------------------------


def _abs_gap(a, b) -> float:
    return abs(a - b)


def _component_gap(a, b) -> float:
    return max((abs(c) for c in (a - b).terms.values()), default=0.0)


def _relative_tol(value) -> float:
    return RECUR_TOL * max(1.0, abs(value))


def _absolute_tol(value) -> float:
    return RECUR_TOL


@dataclass(frozen=True)
class _Family:
    """One basis family's functions, for the check bodies the two families share.

    The checks pass `normalization` and each keyword dict of `variants` as
    keyword arguments to index, series, closed, closed_m3 and partial_sum.
    """

    tag: str            # "harm" or "mon", as in the check names and witnesses
    variants: tuple     # keyword dicts of the members: the two harmonic signs
    indices: object     # enumerate_*_indices(m, deg_max, norm)
    index: object       # index label from (k, **kw)
    basis: object       # basis polynomial of a label
    kernel: str         # MPoly method that annihilates the basis
    inner: object       # exact ball inner product
    series: object      # gf_*_series(m, order, **kw)
    closed: object      # gf_*_closed(m, x, h, **kw)
    closed_m3: object   # gf_*_closed_m3(x, h, **kw)
    partial_sum: object  # gf_*_partial_sum(m, x, h, order, **kw)
    gap: object         # distance between two float values
    gap_label: str      # how closed-vs-series witnesses name that distance
    recur_tol: object   # recurrence tolerance at a value


def _families() -> tuple[_Family, _Family]:
    """Looked up at call time, so that replaced module functions take effect."""
    harm = _Family("harm", ({"sign": +1}, {"sign": -1}), enumerate_harm_indices,
                   BasisIndex, harm_basis, "laplacian", inner_harm, gf_harm_series,
                   gf_harm_closed, gf_harm_closed_m3, gf_harm_partial_sum, _abs_gap,
                   "|closed-series| =", _relative_tol)
    mon = _Family("mon", ({},), enumerate_mon_indices, MonIndex, mon_basis, "dirac",
                  inner_mon, gf_mon_series, gf_mon_closed, gf_mon_closed_m3,
                  gf_mon_partial_sum, _component_gap, "component error", _absolute_tol)
    return harm, mon


# -- pde suite ---------------------------------------------------------------


def _check_kernel(fam: _Family, rng, m: int, deg_max: int, norm: str):
    for idx in fam.indices(m, deg_max, norm):
        poly = fam.basis(idx)
        if not getattr(poly, fam.kernel)().is_zero():
            return False, f"{fam.kernel}({fam.tag} {idx}) != 0"
        if not poly.is_homogeneous(idx.degree()):
            return False, f"{fam.tag} {idx} not homogeneous of degree {idx.degree()}"
    return True, None

def _check_factorization(rng, m_max: int, samples: int):
    for i in range(samples):
        m = rng.randrange(2, m_max + 1)
        deg = rng.randrange(0, 6)
        poly = _random_clifford_poly(rng, m, deg)
        if -poly.dirac().dirac() != poly.laplacian():
            return False, f"sample {i}: -dirac^2 != laplacian (m={m}, deg={deg})"
    return True, None


# -- ortho suite -------------------------------------------------------------


def _check_orthogonality(fam: _Family, rng, m: int, deg_max: int, norm: str):
    basis = [(idx, fam.basis(idx)) for idx in fam.indices(m, deg_max, norm)]
    for i, (idx_a, a) in enumerate(basis):
        self_prod = fam.inner(a, a)
        if not self_prod > 0:
            return False, f"<{idx_a},{idx_a}> = {self_prod} not positive"
        for idx_b, b in basis[i + 1:]:
            prod = fam.inner(a, b)
            if not prod.is_zero():
                return False, f"<{idx_a},{idx_b}> = {prod} != 0"
    return True, None


# -- extract suite -----------------------------------------------------------


def _check_extraction(fam: _Family, rng, m: int, order: int, norm: str, **kw):
    series = fam.series(m, order, normalization=norm, **kw)
    for k in iter_multi_indices(m - 1, order):
        expected = fam.basis(fam.index(k, normalization=norm, **kw))
        if series.coefficient(k) != expected:
            return False, f"coefficient at k={k} differs from {fam.tag}_basis"
    return True, None


# -- gf suite ----------------------------------------------------------------


def _check_gegenbauer_gf_float(rng, order: int, tol: float):
    for nu in GEGENBAUER_NUS[:4]:
        # Float coefficients take the same Horner steps to the same bits, since
        # Fraction (+) float already computes float(Fraction) (+) float.
        polys = [gegenbauer_poly(nu, k) for k in range(order + 1)]
        polys = [replace(p, coeffs=tuple(map(float, p.coeffs))) for p in polys]
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            values = [p(t) for p in polys]
            for h in (0.25, -0.25, 0.125, -0.125):
                partial = sum(v * h ** k for k, v in enumerate(values))
                closed = gf_value(nu, t, h)
                if abs(partial - closed) > tol:
                    return False, f"nu={nu} t={t} h={h}: |{partial}-{closed}|"
    return True, None

def _h2_bound(norm: str) -> float:
    return 0.5 if norm == FACTORIAL else 0.1

def _check_closed_vs_series(fam: _Family, rng, m: int, norm: str, points: int):
    for i in range(points):
        x = _random_ball_point(rng, m)
        h = _random_h(rng, m, _h2_bound(norm))
        for kw in fam.variants:
            closed = fam.closed(m, x, h, normalization=norm, **kw)
            partial = fam.partial_sum(m, x, h, SERIES_ORDER, normalization=norm, **kw)
            err = fam.gap(closed, partial)
            if err > GF_TOL:
                return False, f"point {i}: {fam.gap_label} {err}"
    return True, None

def _check_harm_recurrence_step(rng, m: int, norm: str, points: int):
    for i in range(points):
        x = _random_ball_point(rng, m)
        h = _random_h(rng, m, _h2_bound(norm))
        r2 = _sum_squares(x)
        d = 1.0 - 2.0 * x[-1] * h[-1] + h[-1] ** 2 * r2
        whole = gf_harm_closed(m, x, h, +1, norm)
        inner = gf_harm_closed(m - 1, x[:-1], [v / d for v in h[:-1]], +1, norm,
                               unsafe_domain=True)
        step = d ** (1.0 - m / 2.0) * inner
        if abs(whole - step) > _relative_tol(whole):
            return False, f"point {i}: |recursive-step| = {abs(whole - step)}"
    return True, None

def _check_m3_formula(fam: _Family, rng, norm: str, **kw):
    for i in range(NUM_POINTS):
        x = _random_ball_point(rng, 3)
        h = _random_h(rng, 3, _h2_bound(norm))
        direct = fam.closed_m3(x, h, normalization=norm, **kw)
        generic = fam.closed(3, x, h, normalization=norm, **kw)
        partial = fam.partial_sum(3, x, h, SERIES_ORDER, normalization=norm, **kw)
        err = fam.gap(direct, generic)
        if err > fam.recur_tol(direct):
            return False, f"point {i}: m3 formula vs recurrence {err}"
        err = fam.gap(direct, partial)
        if err > GF_TOL:
            return False, f"point {i}: m3 formula vs series {err}"
    return True, None


# -- lemmas suite ------------------------------------------------------------


def _check_gegenbauer_recurrence_vs_oracle(rng, k_max: int):
    for nu in GEGENBAUER_NUS:
        oracle = series_oracle(nu, k_max)
        for k in range(k_max + 1):
            if gegenbauer_poly(nu, k).coeffs != oracle[k]:
                return False, f"nu={nu} k={k}: recurrence differs from oracle"
    return True, None

def _check_gegenbauer_parity(rng, k_max: int):
    for nu in GEGENBAUER_NUS:
        for k in range(k_max + 1):
            coeffs = gegenbauer_poly(nu, k).coeffs
            if any(c != 0 for i, c in enumerate(coeffs) if (i - k) % 2):
                return False, f"nu={nu} k={k}: parity violated"
    return True, None

def _lemma_gf(m: int, j: int, k_max: int, ring: str, factor):
    """The paper's lemma on the factor lift_step multiplies a degree-j coefficient by:
    its h_m^k coefficient, k <= k_max, is the embedding factor factor(m, j, k)."""
    for k, coeff in enumerate(_lift_factor(m, j, k_max, ring)):
        if coeff != factor(m, j, k):
            return False, f"k={k}: expansion differs from embedding factor"
    return True, None

def _check_plain_base_geometric(rng, kind: str, order: int, sign: int = -1):
    """power_series(p) = (1 - conj(p) h_2) / (1 - 2 x_1 h_2 + h_2^2 |x|^2) exactly.

    p is the harmonic base x_1 + sign*i*x_2, or the monogenic base x_1 - e12*x_2.
    """
    ring = GAUSSIAN if kind == "harm" else CLIFFORD
    base = _base2(sign, ring)
    c1 = MPoly.variable(2, 1, ring).scale(-2)
    c2 = MPoly.variable(2, 1, ring) ** 2 + MPoly.variable(2, 2, ring) ** 2
    geom = binomial_expand(Fraction(-1), c1, c2, 2, order)
    numerator = HSeries(2, order, ring, {
        (0,): MPoly.constant(2, 1, ring),
        (1,): -base.conjugate(),
    })
    closed = numerator * geom
    if closed != power_series(base, order):
        return False, "rational closed form differs from geometric series"
    return True, None


# -- the range table ---------------------------------------------------------


Ranges = namedtuple("Ranges", "m_max deg_max order")
DEFAULT = Ranges(4, 4, 3)
NORMS = (FACTORIAL, PLAIN)
_BOTH = ("harm", "mon")


def _extent(value: int, default: int, cap: int) -> int:
    """min(value, cap) up to the default value, and one more per step above it."""
    return min(value, default, cap) + max(value - default, 0)


# A row per check: its name ("suite.check"; {tag} and {kernel} come from the family),
# the family tags it runs for (None: no family), whether it runs once per variant of
# the family, its body, the values of its parameters given the Ranges, and constant
# parameters that only label it.  There is one check per combination of the values;
# its params are the values, the labels and the variant keywords, and its body is
# called with the family, the rng and, by keyword, exactly those params.
_TABLE = (
    ("pde.{tag}_{kernel}_zero", _BOTH, False, _check_kernel,
     lambda r: {"m": range(2, r.m_max + 1), "deg_max": [r.deg_max], "norm": NORMS}, {}),
    ("pde.dirac_squared_is_laplacian", (None,), False, _check_factorization,
     lambda r: {"m_max": [r.m_max], "samples": [100]}, {}),
    ("ortho.{tag}_pairwise", ("harm",), False, _check_orthogonality,
     lambda r: {"m": range(2, r.m_max + 1), "deg_max": [r.deg_max], "norm": [FACTORIAL]}, {}),
    ("ortho.{tag}_pairwise", ("mon",), False, _check_orthogonality,
     lambda r: {"m": range(2, _extent(r.m_max, DEFAULT.m_max, 3) + 1),
                "deg_max": [_extent(r.deg_max, DEFAULT.deg_max, 3)], "norm": [FACTORIAL]}, {}),
    ("extract.{tag}_series_equals_basis", _BOTH, True, _check_extraction,
     lambda r: {"m": range(2, r.m_max + 1), "order": [r.order], "norm": NORMS}, {}),
    ("gf.gegenbauer_closed_vs_partial", (None,), False, _check_gegenbauer_gf_float,
     lambda r: {}, {"order": SERIES_ORDER, "tol": 1e-10}),
    ("gf.{tag}_closed_vs_series", _BOTH, False, _check_closed_vs_series,
     lambda r: {"m": range(2, r.m_max + 1), "norm": NORMS}, {"points": NUM_POINTS}),
    ("gf.harm_recurrence_step", (None,), False, _check_harm_recurrence_step,
     lambda r: {"m": range(3, r.m_max + 1), "norm": NORMS}, {"points": NUM_POINTS}),
    ("gf.{tag}_m3_closed_formula", _BOTH, True, _check_m3_formula,
     lambda r: {"norm": NORMS if r.m_max >= 3 else ()}, {}),
    ("lemmas.gegenbauer_recurrence_vs_oracle", (None,), False,
     _check_gegenbauer_recurrence_vs_oracle, lambda r: {}, {"k_max": 12}),
    ("lemmas.gegenbauer_parity", (None,), False, _check_gegenbauer_parity,
     lambda r: {}, {"k_max": 12}),
    ("lemmas.gf_f_embedding", (None,), False,
     lambda rng, m, j, k_max: _lemma_gf(m, j, k_max, GAUSSIAN, embedding_F),
     lambda r: {"m": range(3, r.m_max + 1), "j": range(4)}, {"k_max": 8}),
    ("lemmas.gf_x_embedding", (None,), False,
     lambda rng, m, j, k_max: _lemma_gf(m, j, k_max, CLIFFORD, embedding_X),
     lambda r: {"m": range(3, r.m_max + 1), "j": range(4)}, {"k_max": 8}),
    ("lemmas.plain_base_geometric", (None,), False, _check_plain_base_geometric,
     lambda r: {"sign": (+1, -1)}, {"kind": "harm", "order": 12}),
    ("lemmas.plain_base_geometric", (None,), False, _check_plain_base_geometric,
     lambda r: {}, {"kind": "mon", "order": 12}),
)


def build_checks(suites, m_max: int, deg_max: int, order: int) -> list[Check]:
    ranges = Ranges(m_max, deg_max, order)
    families = dict(zip(_BOTH, _families()))
    checks: list[Check] = []
    for name, tags, variants, body, values, labels in _TABLE:
        if name.split(".")[0] not in suites:
            continue
        grid = values(ranges)
        for fam in map(families.get, tags):
            label = name.format(tag=fam.tag, kernel=fam.kernel) if fam else name
            head = (fam,) if fam else ()
            for point in product(*grid.values()):
                for kw in fam.variants if variants else ({},):
                    params = {**dict(zip(grid, point)), **labels, **kw}
                    fn = functools.partial(body, *head, **params)
                    checks.append(Check(label, params, fn))
    return checks


def run_verify(suites=("all",), m_max: int = DEFAULT.m_max, deg_max: int = DEFAULT.deg_max,
               order: int = DEFAULT.order, seed: int = 0):
    """Run the selected suites; returns (report dict, suite timing dict)."""
    selected = list(SUITES) if "all" in suites else [s for s in SUITES if s in suites]
    unknown = set(suites) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)} "
                         f"(choose from all, {', '.join(SUITES)})")
    m_max, deg_max, order, seed = (_at_least(v, n, low) for v, n, low in (
        (m_max, "m_max", 2), (deg_max, "deg_max", 0), (order, "order", 0), (seed, "seed", 0)))
    checks = build_checks(selected, m_max, deg_max, order)
    timings: dict = {}
    t0 = time.perf_counter()
    results = [check.run(seed) for check in checks]
    timings["total"] = time.perf_counter() - t0
    results.sort(key=lambda r: (r.name, json.dumps(r.params, sort_keys=True)))
    failures = [r for r in results if r.status != "pass"]
    report = {
        "seed": seed,
        "params": {"m_max": m_max, "deg_max": deg_max, "order": order,
                   "suites": selected},
        "checks": [r.to_json() for r in results],
        "counts": {"pass": len(results) - len(failures), "fail": len(failures)},
        "overall": "fail" if failures else "pass",
    }
    return report, timings
