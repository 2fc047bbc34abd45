"""The four workloads: input generation, the timed ops and the correctness gates.

Each workload runs in a fresh interpreter (see worker.py).  ``setup`` makes
the inputs from the seed and imports what the timed region needs;
``run`` is the timed region and returns one latency per op; ``check`` runs
the correctness gates after the timed region.  The program only ever sees
the generated inputs: the seed is the one source of randomness.

gtbasis functions are looked up on the package at call time, so that the
tracer's wrappers (installed between ``setup`` and ``run``) are the ones
called in a traced round.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

FACTORIAL, PLAIN = "factorial", "plain"
NORMS = (FACTORIAL, PLAIN)
# h_2 ranges used by gtbasis verify: the factorial base converges for any h_2,
# the plain (geometric) base only for small |h_2|.
H2_BOUND = {FACTORIAL: 0.5, PLAIN: 0.1}
GF_TOL = 1e-8       # closed form vs order-30 partial sum, as in verify
RECUR_TOL = 1e-12   # generic recursion vs literal m = 3 formula, relative
SERIES_ORDER = 30


class Round:
    """What one timed round hands to the gates: latencies, failed ops, outputs."""

    def __init__(self, latencies_ns, failed, outputs, extra=None):
        self.latencies_ns = latencies_ns
        self.failed = failed          # set of op numbers that raised or returned a wrong answer
        self.outputs = outputs
        self.extra = extra or {}


def _invoke(fn, *args):
    return fn(*args)


def _op_caller(tracer):
    """Calls one op; in a traced round the op becomes a root span."""
    return _invoke if tracer is None else tracer.wrap("op", _invoke)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj.to_json(), sort_keys=True, separators=(",", ":"))


def _timed_loop(ops, call):
    """Run (fn, args) ops in order; return latencies, results and failed op numbers."""
    clock = time.perf_counter_ns
    latencies, results, failed = [], [], set()
    for i, (fn, args) in enumerate(ops):
        start = clock()
        try:
            out = call(fn, *args)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            out = exc
            failed.add(i)
        latencies.append(clock() - start)
        results.append(out)
    return latencies, results, failed


# -- verify-all ---------------------------------------------------------------


class VerifyAll:
    """``run_verify`` over every suite; one op is one check."""

    name = "verify-all"
    in_process = True
    expected_checks = 80

    def setup(self, seed):
        from gtbasis import verify
        return {"verify": verify, "seed": seed}

    def run(self, state, tracer, out_dir):
        verify = state["verify"]
        original = verify.Check.run
        latencies = []
        clock = time.perf_counter_ns

        def timed_run(check, seed):
            start = clock()
            try:
                return original(check, seed)
            finally:
                latencies.append(clock() - start)

        verify.Check.run = timed_run
        try:
            report, _ = verify.run_verify(("all",), m_max=4, deg_max=4, order=3,
                                          seed=state["seed"])
        except Exception as exc:  # an aborted run fails every check
            print(f"verify-all: run_verify raised {exc!r}", file=sys.stderr)
            return Round(latencies or [0], set(range(self.expected_checks)), None)
        finally:
            verify.Check.run = original
        failed = {i for i, c in enumerate(report["checks"]) if c["status"] != "pass"}
        return Round(latencies, failed, report)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def attempted(self, rnd):
        return max(len(rnd.latencies_ns), self.expected_checks)

    def check(self, state, rnd, full, out_dir):
        report = rnd.outputs
        problems = []
        if report is None:
            return problems
        if report["overall"] != "pass":
            problems.append(f"overall is {report['overall']!r}")
        if len(report["checks"]) != self.expected_checks:
            problems.append(f"{len(report['checks'])} checks, expected {self.expected_checks}")
            rnd.failed.update(range(self.expected_checks))
        # The report must be byte-identical across runs of one seed: the first
        # run in a checkout stores it, later runs compare check by check.
        stored = Path(out_dir) / f"verify-all-seed{state['seed']}.json"
        text = json.dumps(report, sort_keys=True)
        if stored.exists():
            before = json.loads(stored.read_text())
            if text != json.dumps(before, sort_keys=True):
                problems.append(f"report differs from the one stored in {stored.name}")
                now = [json.dumps(c, sort_keys=True) for c in report["checks"]]
                old = [json.dumps(c, sort_keys=True) for c in before["checks"]]
                differing = {i for i, c in enumerate(now) if i >= len(old) or c != old[i]}
                rnd.failed.update(differing or set(range(len(now))))
        else:
            tmp = stored.with_suffix(".tmp")
            tmp.write_text(text)
            os.replace(tmp, stored)
        return problems

    def digest(self, rnd):
        return _sha([json.dumps(rnd.outputs, sort_keys=True)])

    def trace_extra(self, rnd):
        return {"verify_failed": len(rnd.failed)}


# -- exact-build --------------------------------------------------------------


class ExactBuild:
    """Cold exact construction: bases, series and Gram matrices, plus their identities."""

    name = "exact-build"
    in_process = True

    def setup(self, seed):
        import gtbasis as gt
        rng = random.Random(f"exact-build:{seed}")
        builds = []
        for norm in NORMS:
            builds += [("harm_basis", ("harm", idx), idx)
                       for idx in gt.enumerate_harm_indices(5, 7, norm)]
            builds += [("mon_basis", ("mon", idx), idx)
                       for idx in gt.enumerate_mon_indices(5, 5, norm)]
        harm4 = gt.enumerate_harm_indices(4, 5, FACTORIAL)
        mon4 = gt.enumerate_mon_indices(4, 4, FACTORIAL)
        builds += [("harm_basis", ("harm", idx), idx) for idx in harm4]
        builds += [("mon_basis", ("mon", idx), idx) for idx in mon4]
        builds += [("gf_harm_series", ("series", "harm", +1), 5, 7, +1),
                   ("gf_harm_series", ("series", "harm", -1), 5, 7, -1),
                   ("gf_mon_series", ("series", "mon"), 5, 5)]

        checks = []
        for _, key, *_ in builds:
            if key[0] == "harm" and key[1].m == 5:
                checks.append(("laplacian", key))
            elif key[0] == "mon" and key[1].m == 5:
                checks.append(("dirac", key))
        for sign in (+1, -1):
            for k in gt.iter_multi_indices(4, 7):
                # enumerate_harm_indices lists k_2 = 0 with sign + only: the base
                # (x_1 -/+ i x_2)^0 is 1, so both signs give the same harmonic.
                basis_sign = sign if k[0] > 0 else +1
                checks.append(("coefficient", ("series", "harm", sign), k,
                               ("harm", gt.BasisIndex(k, basis_sign, FACTORIAL))))
        for k in gt.iter_multi_indices(4, 5):
            checks.append(("coefficient", ("series", "mon"), k,
                           ("mon", gt.MonIndex(k, FACTORIAL))))
        for kind, indices in (("gram_harm", harm4), ("gram_mon", mon4)):
            for i, a in enumerate(indices):
                for b in indices[i:]:
                    checks.append((kind, (kind[5:], a), (kind[5:], b)))
        rng.shuffle(builds)
        rng.shuffle(checks)
        return {"gt": gt, "builds": builds, "checks": checks,
                "harm4": harm4, "mon4": mon4}

    def run(self, state, tracer, out_dir):
        gt = state["gt"]
        built, gram = {}, {}

        def build(fn_name, key, *args):
            built[key] = getattr(gt, fn_name)(*args)
            return True

        def laplacian(key):
            poly = built[key]
            return poly.laplacian().is_zero() and poly.is_homogeneous(key[1].degree())

        def dirac(key):
            poly = built[key]
            return poly.dirac().is_zero() and poly.is_homogeneous(key[1].degree())

        def coefficient(series_key, k, basis_key):
            return built[series_key].coefficient(k) == built[basis_key]

        def gram_entry(inner, a, b):
            value = inner(built[a], built[b])
            gram[(a, b)] = value
            return value > 0 if a == b else value.is_zero()

        kinds = {"laplacian": laplacian, "dirac": dirac, "coefficient": coefficient,
                 "gram_harm": lambda a, b: gram_entry(gt.inner_harm, a, b),
                 "gram_mon": lambda a, b: gram_entry(gt.inner_mon, a, b)}
        ops = [(build, b) for b in state["builds"]]
        ops += [(kinds[c[0]], c[1:]) for c in state["checks"]]
        latencies, results, failed = _timed_loop(ops, _op_caller(tracer))
        failed |= {i for i, ok in enumerate(results) if ok is not True}
        return Round(latencies, failed, {"built": built, "gram": gram})

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def attempted(self, rnd):
        return len(rnd.latencies_ns)

    def group_digests(self, state, rnd):
        built, gram = rnd.outputs["built"], rnd.outputs["gram"]

        def keys(kind):
            return sorted((key for key in built if key[0] == kind),
                          key=lambda key: (key[1].k, getattr(key[1], "sign", 0),
                                           key[1].normalization))

        def matrix(kind, indices):
            return [_canonical(gram[((kind, a), (kind, b))]) if ((kind, a), (kind, b)) in gram
                    else "missing"
                    for i, a in enumerate(indices) for b in indices[i:]]

        series = sorted((key for key in built if key[0] == "series"), key=str)
        return {
            "harm_basis": _sha(_canonical(built[key]) for key in keys("harm")),
            "mon_basis": _sha(_canonical(built[key]) for key in keys("mon")),
            "series": _sha(_canonical(built[key]) for key in series),
            "gram_harm": _sha(matrix("harm", state["harm4"])),
            "gram_mon": _sha(matrix("mon", state["mon4"])),
        }

    def check(self, state, rnd, full, out_dir):
        # The outputs do not depend on the seed; their digests are pinned.
        pinned = json.loads((HERE / "pinned.json").read_text())[self.name]
        rnd.extra["digests"] = digests = self.group_digests(state, rnd)
        problems = []
        for group, value in digests.items():
            if value != pinned[group]:
                problems.append(f"{group} digest {value[:12]} != pinned {pinned[group][:12]}")
                rnd.failed.update(self._ops_of_group(state, group))
        return problems

    def _ops_of_group(self, state, group):
        builds = state["builds"]
        if group.startswith("gram"):
            first = len(builds)
            return {first + i for i, c in enumerate(state["checks"]) if c[0] == group}
        kind = {"harm_basis": "harm", "mon_basis": "mon", "series": "series"}[group]
        return {i for i, b in enumerate(builds) if b[1][0] == kind}

    def digest(self, rnd):
        return _sha(f"{k}={v}" for k, v in sorted(rnd.extra["digests"].items()))

    def trace_extra(self, rnd):
        return {}


# -- genfun-grid --------------------------------------------------------------


GRID_CALLS_PER_TYPE = 4200   # 24 call types: 100,800 calls per round


def _grid_types():
    """(function, m, sign, normalization) for every single-point call type."""
    types = []
    for norm in NORMS:
        for m in (3, 4, 5):
            types += [("gf_harm_closed", m, +1, norm), ("gf_harm_closed", m, -1, norm),
                      ("gf_mon_closed", m, None, norm)]
        types += [("gf_harm_closed_m3", 3, +1, norm), ("gf_harm_closed_m3", 3, -1, norm),
                  ("gf_mon_closed_m3", 3, None, norm)]
    return types


def _call_args(fn_name, m, sign, norm, x, h):
    head = () if fn_name.endswith("_m3") else (m,)
    tail = (norm,) if sign is None else (sign, norm)
    return head + (x, h) + tail


def _ball_point(rng, m):
    """Uniform in the unit ball: a Gaussian direction and radius U^(1/m)."""
    g = [rng.gauss(0.0, 1.0) for _ in range(m)]
    scale = rng.random() ** (1.0 / m) / math.sqrt(sum(v * v for v in g))
    return [v * scale for v in g]


def _box_bound(m, r):
    """Certified convergence box of gtbasis: |h_r| <= (1/2) * 4^(r - m) for r >= 3."""
    return 0.5 * 0.25 ** (m - r)


def _half_box_h(rng, m, norm):
    h = [rng.uniform(-H2_BOUND[norm], H2_BOUND[norm])]
    for r in range(3, m + 1):
        b = _box_bound(m, r) / 2.0
        h.append(rng.uniform(-b, b))
    return h


def _components(value):
    """Complex value or float multivector as a {blade: number} map."""
    if isinstance(value, complex):
        return {0: value}
    return dict(value.terms)


def _max_diff(a, b) -> float:
    ca, cb = _components(a), _components(b)
    return max((abs(ca.get(k, 0.0) - cb.get(k, 0.0)) for k in set(ca) | set(cb)),
               default=0.0)


def _magnitude(value) -> float:
    return max((abs(c) for c in _components(value).values()), default=0.0)


class GenfunGrid:
    """About 100k single-point closed-form evaluations in a seeded order."""

    name = "genfun-grid"
    in_process = True

    def setup(self, seed):
        import gtbasis as gt
        rng = random.Random(f"genfun-grid:{seed}")
        types = _grid_types()
        calls = []
        for t, (fn_name, m, sign, norm) in enumerate(types):
            for _ in range(GRID_CALLS_PER_TYPE):
                x, h = _ball_point(rng, m), _half_box_h(rng, m, norm)
                calls.append((t, x, h, _call_args(fn_name, m, sign, norm, x, h)))
        rng.shuffle(calls)
        return {"gt": gt, "types": types, "calls": calls, "seed": seed}

    def run(self, state, tracer, out_dir):
        gt = state["gt"]
        fns = [getattr(gt, fn_name) for fn_name, *_ in state["types"]]
        ops = [(fns[t], args) for t, _, _, args in state["calls"]]
        latencies, results, failed = _timed_loop(ops, _op_caller(tracer))
        return Round(latencies, failed, results)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def attempted(self, rnd):
        return len(rnd.latencies_ns)

    def check(self, state, rnd, full, out_dir):
        problems = []
        if not full:
            return problems
        gt, types, calls = state["gt"], state["types"], state["calls"]
        for i, value in enumerate(rnd.outputs):
            if i not in rnd.failed and not all(
                    math.isfinite(c.real) and math.isfinite(c.imag)
                    for c in _components(value).values()):
                rnd.failed.add(i)
        bad_before = len(rnd.failed)
        # every m = 3 point: generic recursion against the literal formula
        for i, (t, _, _, args) in enumerate(calls):
            fn_name, m, sign, norm = types[t]
            if m != 3 or i in rnd.failed:
                continue
            if fn_name.endswith("_m3"):
                other = getattr(gt, fn_name[:-3])(3, *args)
            else:
                other = getattr(gt, fn_name + "_m3")(*args[1:])
            value = rnd.outputs[i]
            if _max_diff(value, other) > RECUR_TOL * max(1.0, _magnitude(value)):
                rnd.failed.add(i)
        # a seeded sample against the order-30 partial sums (the independent
        # oracle), one call per type; gf_mon_partial_sum at m = 5 takes about
        # 8 s per point and is left out of the sample
        sampler = random.Random(f"genfun-grid:{state['seed']}:sample")
        by_type: dict = {}
        for i, call in enumerate(calls):
            by_type.setdefault(call[0], []).append(i)
        for t, (fn_name, m, sign, norm) in enumerate(types):
            if fn_name.startswith("gf_mon") and m == 5:
                continue
            i = sampler.choice(by_type[t])
            if i in rnd.failed:
                continue
            _, x, h, _ = calls[i]
            if fn_name.startswith("gf_harm"):
                partial = gt.gf_harm_partial_sum(m, x, h, SERIES_ORDER, sign, norm)
            else:
                partial = gt.gf_mon_partial_sum(m, x, h, SERIES_ORDER, norm)
            if _max_diff(rnd.outputs[i], partial) > GF_TOL:
                rnd.failed.add(i)
        if len(rnd.failed) > bad_before:
            problems.append(f"{len(rnd.failed) - bad_before} values disagree with a reference")
        return problems

    def digest(self, rnd):
        return _sha(repr(sorted(_components(v).items())) for v in rnd.outputs)

    def trace_extra(self, rnd):
        return {}


# -- cli-calls ----------------------------------------------------------------


def _composition(rng, parts, total):
    k = [0] * parts
    for _ in range(total):
        k[rng.randrange(parts)] += 1
    return k


def _csv(values):
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _cli_deck(seed):
    """47 requests: 42 that must succeed and 5 (about 10%) that must be refused.

    The mix is stratified, so every seed runs the same number of calls of each
    kind and dimension; the seed draws indices, points, formats and the order.
    NaN, inf and overflowing inputs are left out until gtbasis documents a
    response for them.
    """
    rng = random.Random(f"cli-calls:{seed}")
    deck = []
    for kind in ("harm", "mon"):
        for m in (3, 4, 5):
            for _ in range(3):
                req = {"cmd": "basis", "kind": kind, "m": m,
                       "k": _composition(rng, m - 1, rng.randint(0, 4)),
                       "sign": rng.choice((+1, -1)), "norm": rng.choice(NORMS),
                       "format": rng.choice(("json", "text")), "exit": 0}
                deck.append(req)
            for _ in range(2):
                norm = rng.choice(NORMS)
                deck.append({"cmd": "eval", "kind": kind, "m": m,
                             "x": _ball_point(rng, m), "h": _half_box_h(rng, m, norm),
                             "sign": rng.choice((+1, -1)), "norm": norm, "exit": 0})
        for m in (3, 4):
            for order in (1, 2, 3):
                deck.append({"cmd": "series", "kind": kind, "m": m, "order": order,
                             "sign": rng.choice((+1, -1)), "norm": rng.choice(NORMS),
                             "exit": 0})
    # refused with exit code 2: a multi-index of the wrong length or with a
    # negative entry
    for _ in range(3):
        kind, m = rng.choice(("harm", "mon")), rng.choice((3, 4, 5))
        k = _composition(rng, m - 1, rng.randint(1, 4))
        if rng.random() < 0.5:
            k = k[:-1]
        else:
            k[rng.randrange(m - 1)] = -rng.randint(1, 3)
        deck.append({"cmd": "basis", "kind": kind, "m": m, "k": k, "sign": +1,
                     "norm": FACTORIAL, "format": "json", "exit": 2})
    # refused with exit code 3: h_m beyond the certified box, or x outside the ball
    for outside_h in (True, False):
        kind, m = rng.choice(("harm", "mon")), rng.choice((3, 4, 5))
        x, h = _ball_point(rng, m), _half_box_h(rng, m, FACTORIAL)
        if outside_h:
            h[-1] = math.copysign(_box_bound(m, m) * rng.uniform(1.5, 3.0), rng.uniform(-1, 1))
        else:
            scale = rng.uniform(1.5, 2.0) / math.sqrt(sum(v * v for v in x))
            x = [v * scale for v in x]
        deck.append({"cmd": "eval", "kind": kind, "m": m, "x": x, "h": h, "sign": +1,
                     "norm": FACTORIAL, "exit": 3})
    rng.shuffle(deck)
    return deck


def _cli_args(req):
    sign = f"--sign={'+' if req['sign'] > 0 else '-'}"
    common = ["--kind", req["kind"], "--m", str(req["m"])]
    # "--flag=value": a value starting with "-" would otherwise read as a flag
    if req["cmd"] == "basis":
        return ["basis", *common, f"--k={_csv(req['k'])}", sign, "--norm", req["norm"],
                "--format", req["format"]]
    if req["cmd"] == "eval":
        return ["genfun", "eval", *common, f"--x={_csv(req['x'])}",
                f"--h={_csv(req['h'])}", sign, "--norm", req["norm"], "--format", "json"]
    return ["genfun", "series", *common, "--order", str(req["order"]), sign,
            "--norm", req["norm"]]


def _expected_stdout(gt, req) -> str:
    """The JSON (or text) of the same request made in-process."""
    if req["exit"] != 0:
        return ""
    if req["cmd"] == "basis":
        if req["kind"] == "harm":
            poly = gt.harm_basis(gt.BasisIndex(req["k"], req["sign"], req["norm"]))
        else:
            poly = gt.mon_basis(gt.MonIndex(req["k"], req["norm"]))
        text = (json.dumps(poly.to_json(), sort_keys=True) if req["format"] == "json"
                else poly.to_text())
    elif req["cmd"] == "eval":
        if req["kind"] == "harm":
            v = gt.gf_harm_closed(req["m"], req["x"], req["h"], req["sign"], req["norm"])
            text = json.dumps({"re": v.real, "im": v.imag}, sort_keys=True)
        else:
            v = gt.gf_mon_closed(req["m"], req["x"], req["h"], req["norm"])
            text = json.dumps({"terms": [{"blade": mask, "e": gt.blade_name(mask), "value": c}
                                         for mask, c in sorted(v.terms.items())]},
                              sort_keys=True)
    else:
        if req["kind"] == "harm":
            series = gt.gf_harm_series(req["m"], req["order"], req["sign"], req["norm"])
        else:
            series = gt.gf_mon_series(req["m"], req["order"], req["norm"])
        text = json.dumps(series.to_json(), sort_keys=True)
    return text + "\n"


CLI_TIMEOUT_S = 60


class CliCalls:
    """Closed loop, one client: sequential ``python -m gtbasis`` subprocesses.

    The worker does not import gtbasis before the calls, so that the largest
    child's peak RSS is the child's own and not inherited from a larger parent.
    """

    name = "cli-calls"
    in_process = False

    def setup(self, seed):
        return {"deck": _cli_deck(seed)}

    def run(self, state, tracer, out_dir):
        env = dict(os.environ)
        latencies, outputs, extra = [], [], {}
        trace_dir = None
        if tracer is not None:
            trace_dir = Path(out_dir) / "cli-children"
            trace_dir.mkdir(parents=True, exist_ok=True)
        clock = time.perf_counter_ns
        for i, req in enumerate(state["deck"]):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "gtbasis", *_cli_args(req)]
            else:
                cmd = [sys.executable, str(HERE / "cli_child.py"),
                       str(trace_dir / f"{i}.json"), *_cli_args(req)]
            start = clock()
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      env=env, timeout=CLI_TIMEOUT_S)
                outputs.append((proc.returncode, proc.stdout.decode()))
            except subprocess.TimeoutExpired:  # killed by subprocess.run; the op fails
                outputs.append((None, ""))
            latencies.append(clock() - start)
        if trace_dir is not None:
            extra["children"] = [json.loads((trace_dir / f"{i}.json").read_text())
                                 for i in range(len(state["deck"]))]
            shutil.rmtree(trace_dir)
        return Round(latencies, set(), outputs, extra)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def attempted(self, rnd):
        return len(rnd.latencies_ns)

    def check(self, state, rnd, full, out_dir):
        import gtbasis as gt
        for i, (req, (code, out)) in enumerate(zip(state["deck"], rnd.outputs)):
            if code != req["exit"] or out != _expected_stdout(gt, req):
                rnd.failed.add(i)
        bad = sorted(rnd.failed)
        return [f"{len(bad)} calls gave another exit code or stdout, first: "
                f"{_cli_args(state['deck'][bad[0]])}"] if bad else []

    def digest(self, rnd):
        return _sha(f"{code}:{out}" for code, out in rnd.outputs)

    def trace_extra(self, rnd):
        return {}


WORKLOADS = {w.name: w for w in (VerifyAll(), ExactBuild(), GenfunGrid(), CliCalls())}
