"""Machine verification of every identity behind the basis construction.

Each check is a pure function returning pass/fail plus a first-counterexample
witness.  Checks draw their randomness from a splittable seed sequence keyed
by (seed, check name, parameters), so the report content is identical for a
given seed regardless of execution order or thread count.  The streams are
numpy's ``Generator(PCG64(SeedSequence(...)))`` reproduced in pure Python
(``_pcg``), so reports are the ones numpy's generator gave and the package
needs no numpy at run time.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from ._pcg import PCG64
from .gegenbauer import gegenbauer_poly, gf_value, series_oracle
from .harmonics import (FACTORIAL, PLAIN, BasisIndex, DomainBox, _base2, embedding_F,
                        enumerate_harm_indices, gf_harm_closed, gf_harm_closed_m3,
                        gf_harm_partial_sum, gf_harm_series, harm_basis,
                        iter_multi_indices)
from .hseries import HSeries, _monogenic_prefactor, binomial_expand, power_series
from .monogenics import (MonIndex, embedding_X, enumerate_mon_indices,
                         gf_mon_closed, gf_mon_closed_m3, gf_mon_partial_sum,
                         gf_mon_series, mon_basis)
from .mvpoly import CLIFFORD, GAUSSIAN, MPoly, radius_squared
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


def _check_rng(seed: int, name: str, params: dict) -> PCG64:
    key = json.dumps([name, params], sort_keys=True).encode()
    digest = hashlib.sha256(key).digest()
    words = [int.from_bytes(digest[i:i + 8], "big") for i in range(0, 32, 8)]
    return PCG64([seed] + words)


# -- random data -------------------------------------------------------------


def _random_ball_point(rng, m: int) -> list:
    while True:
        x = rng.uniform(-1.0, 1.0, size=m)
        if sum(v * v for v in x) <= 1.0:
            return x


def _random_h(rng, m: int, h2_bound: float) -> list:
    box = DomainBox(m)
    h = [rng.uniform(-h2_bound, h2_bound)]
    for r in range(3, m + 1):
        b = float(box.bound(r)) / 2.0
        h.append(rng.uniform(-b, b))
    return h


def _random_fraction(rng) -> Fraction:
    return Fraction(rng.integers(-9, 10), rng.integers(1, 10))


def _random_clifford_poly(rng, m: int, deg: int, nterms: int = 6) -> MPoly:
    terms: dict = {}
    for _ in range(nterms):
        exps = []
        left = deg
        for _ in range(m):
            e = rng.integers(0, left + 1)
            exps.append(e)
            left -= e
        key = (tuple(exps), rng.integers(0, 1 << m))
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


def _check_kernel(fam: _Family, m: int, deg: int, norm: str):
    def run(rng):
        for idx in fam.indices(m, deg, norm):
            poly = fam.basis(idx)
            if not getattr(poly, fam.kernel)().is_zero():
                return False, f"{fam.kernel}({fam.tag} {idx}) != 0"
            if not poly.is_homogeneous(idx.degree()):
                return False, f"{fam.tag} {idx} not homogeneous of degree {idx.degree()}"
        return True, None
    return run

def _check_factorization(m_max: int, count: int):
    def run(rng):
        for i in range(count):
            m = rng.integers(2, m_max + 1)
            deg = rng.integers(0, 6)
            poly = _random_clifford_poly(rng, m, deg)
            if -poly.dirac().dirac() != poly.laplacian():
                return False, f"sample {i}: -dirac^2 != laplacian (m={m}, deg={deg})"
        return True, None
    return run


# -- ortho suite -------------------------------------------------------------


def _check_orthogonality(fam: _Family, m: int, deg: int, norm: str):
    def run(rng):
        basis = [(idx, fam.basis(idx)) for idx in fam.indices(m, deg, norm)]
        for i, (idx_a, a) in enumerate(basis):
            self_prod = fam.inner(a, a)
            if not self_prod > 0:
                return False, f"<{idx_a},{idx_a}> = {self_prod} not positive"
            for idx_b, b in basis[i + 1:]:
                prod = fam.inner(a, b)
                if not prod.is_zero():
                    return False, f"<{idx_a},{idx_b}> = {prod} != 0"
        return True, None
    return run


# -- extract suite -----------------------------------------------------------


def _check_extraction(fam: _Family, m: int, order: int, norm: str, **kw):
    def run(rng):
        series = fam.series(m, order, normalization=norm, **kw)
        for k in iter_multi_indices(m - 1, order):
            expected = fam.basis(fam.index(k, normalization=norm, **kw))
            if series.coefficient(k) != expected:
                return False, f"coefficient at k={k} differs from {fam.tag}_basis"
        return True, None
    return run


# -- gf suite ----------------------------------------------------------------


def _check_gegenbauer_gf_float():
    def run(rng):
        for nu in GEGENBAUER_NUS[:4]:
            polys = [gegenbauer_poly(nu, k) for k in range(SERIES_ORDER + 1)]
            for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
                for h in (0.25, -0.25, 0.125, -0.125):
                    partial = sum(p(t) * h ** k for k, p in enumerate(polys))
                    closed = gf_value(nu, t, h)
                    if abs(partial - closed) > 1e-10:
                        return False, f"nu={nu} t={t} h={h}: |{partial}-{closed}|"
        return True, None
    return run

def _h2_bound(norm: str) -> float:
    return 0.5 if norm == FACTORIAL else 0.1

def _check_closed_vs_series(fam: _Family, m: int, norm: str):
    def run(rng):
        for i in range(NUM_POINTS):
            x = _random_ball_point(rng, m)
            h = _random_h(rng, m, _h2_bound(norm))
            for kw in fam.variants:
                closed = fam.closed(m, x, h, normalization=norm, **kw)
                partial = fam.partial_sum(m, x, h, SERIES_ORDER, normalization=norm, **kw)
                err = fam.gap(closed, partial)
                if err > GF_TOL:
                    return False, f"point {i}: {fam.gap_label} {err}"
        return True, None
    return run

def _check_harm_recurrence_step(m: int, norm: str):
    def run(rng):
        for i in range(NUM_POINTS):
            x = _random_ball_point(rng, m)
            h = _random_h(rng, m, _h2_bound(norm))
            r2 = sum(v * v for v in x)
            d = 1.0 - 2.0 * x[-1] * h[-1] + h[-1] ** 2 * r2
            whole = gf_harm_closed(m, x, h, +1, norm)
            inner = gf_harm_closed(m - 1, x[:-1], [v / d for v in h[:-1]], +1, norm,
                                   unsafe_domain=True)
            step = d ** (1.0 - m / 2.0) * inner
            if abs(whole - step) > _relative_tol(whole):
                return False, f"point {i}: |recursive-step| = {abs(whole - step)}"
        return True, None
    return run

def _check_m3_formula(fam: _Family, norm: str, **kw):
    def run(rng):
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
    return run


# -- lemmas suite ------------------------------------------------------------


def _check_gegenbauer_recurrence_vs_oracle():
    def run(rng):
        for nu in GEGENBAUER_NUS:
            oracle = series_oracle(nu, 12)
            for k in range(13):
                if gegenbauer_poly(nu, k).coeffs != oracle[k]:
                    return False, f"nu={nu} k={k}: recurrence differs from oracle"
        return True, None
    return run

def _check_gegenbauer_parity():
    def run(rng):
        for nu in GEGENBAUER_NUS:
            for k in range(13):
                coeffs = gegenbauer_poly(nu, k).coeffs
                if any(c != 0 for i, c in enumerate(coeffs) if (i - k) % 2):
                    return False, f"nu={nu} k={k}: parity violated"
        return True, None
    return run

def _check_lemma_gf(m: int, j: int, ring: str, alpha: Fraction, prefactor, factor,
                    kmax: int = 8):
    """prefactor * (1 - 2 x_m h_m + h_m^2 |x|_m^2)^alpha = sum_k factor(m, j, k) h_m^k."""
    def run(rng):
        c1 = MPoly.variable(m, m, ring).scale(-2)
        c2 = radius_squared(m, ring=ring)
        series = prefactor(m, kmax) * binomial_expand(alpha, c1, c2, m, kmax)
        for k in range(kmax + 1):
            key = tuple(k if i == m - 2 else 0 for i in range(m - 1))
            if series.coefficient(key) != factor(m, j, k):
                return False, f"k={k}: expansion differs from embedding factor"
        return True, None
    return run

def _check_plain_base_geometric(base: MPoly, order: int = 12):
    """power_series(p) = (1 - conj(p) h_2) / (1 - 2 x_1 h_2 + h_2^2 |x|^2) exactly."""
    def run(rng):
        ring = base.ring
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
    return run


# -- suite assembly ----------------------------------------------------------


def build_checks(suites, m_max: int, deg_max: int, order: int) -> list[Check]:
    checks: list[Check] = []
    want = set(suites)
    harm, mon = _families()

    if "pde" in want:
        for fam, m_top, deg in ((harm, 5, deg_max), (mon, 4, min(4, deg_max))):
            for m in range(2, min(m_top, m_max) + 1):
                for norm in (FACTORIAL, PLAIN):
                    checks.append(Check(f"pde.{fam.tag}_{fam.kernel}_zero",
                                        {"m": m, "deg_max": deg, "norm": norm},
                                        _check_kernel(fam, m, deg, norm)))
        checks.append(Check("pde.dirac_squared_is_laplacian",
                            {"m_max": min(4, m_max), "samples": 100},
                            _check_factorization(min(4, m_max), 100)))

    if "ortho" in want:
        for fam, m_top, deg in ((harm, 4, min(4, deg_max)), (mon, 3, min(3, deg_max))):
            for m in range(2, min(m_top, m_max) + 1):
                checks.append(Check(f"ortho.{fam.tag}_pairwise",
                                    {"m": m, "deg_max": deg, "norm": FACTORIAL},
                                    _check_orthogonality(fam, m, deg, FACTORIAL)))

    if "extract" in want:
        for m in range(2, min(4, m_max) + 1):
            for norm in (FACTORIAL, PLAIN):
                for fam, n in ((harm, min(order, 4)), (mon, min(order, 3))):
                    for kw in fam.variants:
                        checks.append(Check(f"extract.{fam.tag}_series_equals_basis",
                                            {"m": m, "order": n, "norm": norm, **kw},
                                            _check_extraction(fam, m, n, norm, **kw)))

    if "gf" in want:
        checks.append(Check("gf.gegenbauer_closed_vs_partial",
                            {"order": SERIES_ORDER, "tol": 1e-10},
                            _check_gegenbauer_gf_float()))
        for m in range(2, min(5, m_max) + 1):
            for norm in (FACTORIAL, PLAIN):
                for fam in (harm, mon):
                    checks.append(Check(f"gf.{fam.tag}_closed_vs_series",
                                        {"m": m, "norm": norm, "points": NUM_POINTS},
                                        _check_closed_vs_series(fam, m, norm)))
        for m in range(3, min(5, m_max) + 1):
            for norm in (FACTORIAL, PLAIN):
                checks.append(Check("gf.harm_recurrence_step",
                                    {"m": m, "norm": norm, "points": NUM_POINTS},
                                    _check_harm_recurrence_step(m, norm)))
        if m_max >= 3:
            for norm in (FACTORIAL, PLAIN):
                for fam in (harm, mon):
                    for kw in fam.variants:
                        checks.append(Check(f"gf.{fam.tag}_m3_closed_formula",
                                            {"norm": norm, **kw},
                                            _check_m3_formula(fam, norm, **kw)))

    if "lemmas" in want:
        checks.append(Check("lemmas.gegenbauer_recurrence_vs_oracle",
                            {"k_max": 12}, _check_gegenbauer_recurrence_vs_oracle()))
        checks.append(Check("lemmas.gegenbauer_parity",
                            {"k_max": 12}, _check_gegenbauer_parity()))
        # (1 - 2 x_m h_m + h_m^2 |x|_m^2)^(lift - m/2 - j), lift = 1 harmonic, 0 monogenic
        lemmas = (("f", (3, 4, 5), GAUSSIAN, 1, HSeries.one, embedding_F),
                  ("x", (3, 4), CLIFFORD, 0, _monogenic_prefactor, embedding_X))
        for tag, dims, ring, lift, prefactor, factor in lemmas:
            for m in dims:
                if m > max(m_max, 3):
                    continue
                for j in range(4):
                    alpha = lift - Fraction(m, 2) - j
                    checks.append(Check(f"lemmas.gf_{tag}_embedding",
                                        {"m": m, "j": j, "k_max": 8},
                                        _check_lemma_gf(m, j, ring, alpha, prefactor, factor)))
        for sign in (+1, -1):
            checks.append(Check("lemmas.plain_base_geometric",
                                {"kind": "harm", "sign": sign, "order": 12},
                                _check_plain_base_geometric(_base2(sign, GAUSSIAN))))
        checks.append(Check("lemmas.plain_base_geometric",
                            {"kind": "mon", "order": 12},
                            _check_plain_base_geometric(_base2(-1, CLIFFORD))))

    return checks


def thread_count() -> int:
    raw = os.environ.get("GTBASIS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_verify(suites=("all",), m_max: int = 4, deg_max: int = 4, order: int = 3,
               seed: int = 0, threads: int | None = None):
    """Run the selected suites; returns (report dict, suite timing dict)."""
    selected = list(SUITES) if "all" in suites else [s for s in SUITES if s in suites]
    unknown = set(suites) - set(SUITES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)} "
                         f"(choose from all, {', '.join(SUITES)})")
    for name, value, low in (("m_max", m_max, 2), ("deg_max", deg_max, 0),
                             ("order", order, 0)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    checks = build_checks(selected, m_max, deg_max, order)
    threads = thread_count() if threads is None else max(1, threads)
    timings: dict = {}
    t0 = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: c.run(seed), checks))
    else:
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
