"""Per-layer tracing of gtbasis, installed from outside the package.

The tracer replaces public functions and methods of the ``gtbasis`` modules
with wrappers and puts every original back on ``uninstall``.  A function is
replaced in every loaded ``gtbasis`` module that imported it by name (for
example ``embedding_F`` in ``harmonics``, ``monogenics``, ``verify`` and the
package itself); a method is replaced on its class.

Three kinds of wrapper, chosen by how often the target runs:

* ``count``: a call counter only.  Used on the per-coefficient hot paths
  (``Multivector.__init__``, ``GaussianRational`` operators,
  ``blade_product``), which run millions of times per workload.
* ``timer``: counter plus self time, no span record.
* ``span``: counter, self time and one span (name, start, end, parent id)
  kept in memory until the run writes them out.

Self time is a call's duration minus the durations of the timed calls
(timers and spans) it made.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

COUNT, TIMER, SPAN = "count", "timer", "span"

_GAUSSIAN_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")

# (module, attribute, metric name, wrapper kind, result hook)
# Result hooks: "terms" records the largest term count of the result,
# "nonzero" counts results that are not zero, "retain" keeps the exact result
# so its coefficient bit sizes can be measured after the run.
TARGETS = [
    *[("scalars", f"GaussianRational.{op}", "scalars.gaussian_ops", COUNT, None)
      for op in _GAUSSIAN_OPS],
    ("scalars", "binom_frac", "scalars.binom_frac", COUNT, None),
    ("clifford", "blade_product", "clifford.blade_product", COUNT, None),
    ("clifford", "Multivector.__init__", "clifford.new", COUNT, None),
    ("clifford", "Multivector.__mul__", "clifford.mul", TIMER, None),
    ("mvpoly", "MPoly.__init__", "mvpoly.new", COUNT, None),
    ("mvpoly", "MPoly.__mul__", "mvpoly.mul", TIMER, "terms"),
    ("mvpoly", "MPoly.laplacian", "mvpoly.laplacian", SPAN, None),
    ("mvpoly", "MPoly.dirac", "mvpoly.dirac", SPAN, None),
    ("gegenbauer", "gegenbauer_poly", "gegenbauer.poly", TIMER, None),
    ("hseries", "lift_step", "hseries.lift_step", SPAN, "terms"),
    ("hseries", "HSeries.__mul__", "hseries.cauchy_mul", SPAN, "terms"),
    ("hseries", "binomial_expand", "hseries.binomial_expand", SPAN, "terms"),
    ("harmonics", "embedding_F", "harmonics.embedding_F", TIMER, None),
    ("harmonics", "harm_basis", "harmonics.harm_basis", SPAN, "retain"),
    ("harmonics", "gf_harm_series", "harmonics.gf_harm_series", SPAN, "retain"),
    ("harmonics", "gf_harm_closed", "harmonics.gf_harm_closed", SPAN, None),
    ("harmonics", "gf_harm_closed_m3", "harmonics.gf_harm_closed_m3", SPAN, None),
    ("harmonics", "gf_harm_partial_sum", "harmonics.gf_harm_partial_sum", SPAN, None),
    ("harmonics", "embedding_f_value", "harmonics.embedding_f_value", COUNT, None),
    ("monogenics", "embedding_X", "monogenics.embedding_X", TIMER, None),
    ("monogenics", "mon_basis", "monogenics.mon_basis", SPAN, "retain"),
    ("monogenics", "gf_mon_series", "monogenics.gf_mon_series", SPAN, "retain"),
    ("monogenics", "gf_mon_closed", "monogenics.gf_mon_closed", SPAN, None),
    ("monogenics", "gf_mon_closed_m3", "monogenics.gf_mon_closed_m3", SPAN, None),
    ("monogenics", "gf_mon_partial_sum", "monogenics.gf_mon_partial_sum", SPAN, None),
    ("monogenics", "embedding_x_value", "monogenics.embedding_x_value", COUNT, None),
    ("ballint", "inner_harm", "ballint.inner", SPAN, "retain"),
    ("ballint", "inner_mon", "ballint.inner", SPAN, "retain"),
    ("ballint", "monomial_ball_integral", "ballint.monomial_integral", COUNT, "nonzero"),
    ("verify", "Check.run", "verify.check", SPAN, None),
]

# lru caches whose hits and misses the run reports: (module, attribute, name)
CACHES = [
    ("gegenbauer", "gegenbauer_poly", "gegenbauer.poly"),
    ("harmonics", "embedding_F", "harmonics.embedding_F"),
    ("monogenics", "embedding_X", "monogenics.embedding_X"),
    ("scalars", "binom_frac", "scalars.binom_frac"),
    ("ballint", "_ball_integral_cached", "ballint.integral_cache"),
]

_BIT_KEYS = ("num", "den", "inum", "iden", "q_num", "q_den", "q_inum", "q_iden")


def _coeff_bits(data) -> int:
    """Largest numerator/denominator bit length in a to_json() document."""
    best = 0
    stack = [data]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            for key, value in node.items():
                if key in _BIT_KEYS and isinstance(value, int):
                    best = max(best, abs(value).bit_length())
                elif isinstance(value, (dict, list)):
                    stack.append(value)
        elif isinstance(node, list):
            stack.extend(v for v in node if isinstance(v, (dict, list)))
    return best


def _is_float_product(args) -> bool:
    """True when a Multivector product works on float coefficients."""
    for operand in args[:2]:
        for coeff in getattr(operand, "terms", {}).values():
            return isinstance(coeff, (float, complex))
    return len(args) > 1 and isinstance(args[1], (float, complex))


def _verify_suite(args) -> str:
    """verify.<suite> for a Check.run call, from the check's name."""
    return "verify." + str(getattr(args[0], "name", "?")).split(".", 1)[0]


# Targets whose metric name is chosen per call.
CLASSIFY = {
    "clifford.mul": lambda args: ("clifford.mul_float" if _is_float_product(args)
                                  else "clifford.mul_exact"),
    "verify.check": _verify_suite,
}


def _gtbasis_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gtbasis" or name.startswith("gtbasis."))]


class Tracer:
    """Counters, self times and spans for calls into gtbasis."""

    def __init__(self):
        self.counts: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.maxes: dict = {}
        self.nonzero: dict = {}
        self.retained: list = []
        self.missing: list = []
        self._patches: list = []
        self._caches: dict = {}
        self.cache_info: dict = {}
        self._timed_stack: list = []
        self._span_stack: list = [-1]
        self._names: dict = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.origin = time.perf_counter()

    # -- cells ---------------------------------------------------------------

    def _cell(self, table: dict, name: str, zero):
        if name not in table:
            table[name] = [zero]
        return table[name]

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names[name] = len(self._names)
        return self._names[name]

    # -- wrappers ------------------------------------------------------------

    def _counter(self, fn, name: str, hook):
        count = self._cell(self.counts, name, 0)
        on_result = self._result_hook(name, hook)
        if on_result is None:
            def counted(*args, **kwargs):
                count[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                count[0] += 1
                out = fn(*args, **kwargs)
                on_result(out)
                return out
        return counted

    def _timed(self, fn, name: str, hook, span: bool, classify=None):
        """Wrapper that counts, accumulates self time and optionally records a span.

        ``classify(args)`` may pick the metric name per call, for example the
        exact or float variant of a Clifford product.
        """
        perf = time.perf_counter
        timed_stack = self._timed_stack
        span_stack = self._span_stack
        counts, selfs, totals = self.counts, self.self_s, self.total_s
        cell = self._cell
        on_result = self._result_hook(name, hook)

        records = (self.span_name, self.span_start, self.span_end, self.span_parent)

        def cells_for(key):
            return (cell(counts, key, 0), cell(selfs, key, 0.0), cell(totals, key, 0.0),
                    self._name_id(key))

        if classify is None:
            fixed = cells_for(name)

            def cells(args):
                return fixed
        else:
            by_key: dict = {}

            def cells(args):
                key = classify(args)
                if key not in by_key:
                    by_key[key] = cells_for(key)
                return by_key[key]

        def wrapped(*args, **kwargs):
            count, self_time, total_time, name_id = cells(args)
            count[0] += 1
            if span:
                span_id = len(records[0])
                records[0].append(name_id)
                records[1].append(0.0)
                records[2].append(0.0)
                records[3].append(span_stack[-1])
                span_stack.append(span_id)
            timed_stack.append(0.0)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                self_time[0] += duration - timed_stack.pop()
                total_time[0] += duration
                if timed_stack:
                    timed_stack[-1] += duration
                if span:
                    span_stack.pop()
                    records[1][span_id] = start - self.origin
                    records[2][span_id] = end - self.origin
            if on_result is not None:
                on_result(out)
            return out
        return wrapped

    def _result_hook(self, name: str, hook):
        if hook == "terms":
            best = self._cell(self.maxes, name + ".terms", 0)

            def record_terms(out):
                n = len(getattr(out, "terms", ()))
                if n > best[0]:
                    best[0] = n
            return record_terms
        if hook == "retain":
            return self.retained.append
        if hook == "nonzero":
            nonzero = self._cell(self.nonzero, name, 0)

            def record_nonzero(out):
                if not out.is_zero():
                    nonzero[0] += 1
            return record_nonzero
        return None

    def wrap(self, name: str, fn):
        """A span wrapper around fn that is not installed anywhere."""
        return self._timed(fn, name, None, span=True)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in _gtbasis_modules()}
        # A module that is not loaded cannot run; an attribute missing from a
        # loaded module is reported.
        for mod_name, attr, alias in CACHES:
            if mod_name not in modules:
                continue
            fn = getattr(modules[mod_name], attr, None)
            if hasattr(fn, "cache_info"):
                self._caches[alias] = (fn, fn.cache_info())
            else:
                self.missing.append(f"{mod_name}.{attr}")
        for mod_name, target, name, kind, hook in TARGETS:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            if "." in target:
                self._patch_method(mod, target, name, kind, hook)
            else:
                self._patch_function(mod, target, name, kind, hook)

    def _make(self, fn, name: str, kind: str, hook):
        if kind == COUNT:
            return self._counter(fn, name, hook)
        return self._timed(fn, name, hook, span=(kind == SPAN), classify=CLASSIFY.get(name))

    def _patch_method(self, mod, target: str, name: str, kind: str, hook) -> None:
        cls_name, attr = target.split(".", 1)
        cls = getattr(mod, cls_name, None)
        original = vars(cls).get(attr) if isinstance(cls, type) else None
        if original is None:
            self.missing.append(f"{mod.__name__}.{target}")
            return
        setattr(cls, attr, self._make(original, name, kind, hook))
        self._patches.append((cls, attr, original))

    def _patch_function(self, mod, attr: str, name: str, kind: str, hook) -> None:
        original = vars(mod).get(attr)
        if original is None:
            self.missing.append(f"{mod.__name__}.{attr}")
            return
        wrapper = self._make(original, name, kind, hook)
        for other in _gtbasis_modules():
            if vars(other).get(attr) is original:
                setattr(other, attr, wrapper)
                self._patches.append((other, attr, original))

    def uninstall(self) -> None:
        """Put every original back and check that no wrapper is left behind."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]
        if left:
            raise RuntimeError(f"tracer wrappers still installed: {left}")
        for alias, (fn, start) in self._caches.items():
            end = fn.cache_info()
            self.cache_info[alias] = {
                "hits": end.hits - start.hits, "misses": end.misses - start.misses,
                "currsize": end.currsize}

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Raw totals; ratios are formed later so that several processes can be summed."""
        return {
            "counts": {k: v[0] for k, v in sorted(self.counts.items())},
            "self_s": {k: v[0] for k, v in sorted(self.self_s.items())},
            "total_s": {k: v[0] for k, v in sorted(self.total_s.items())},
            "max": {k: v[0] for k, v in sorted(self.maxes.items())},
            "nonzero": {k: v[0] for k, v in sorted(self.nonzero.items())},
            "caches": self.cache_info,
            "coeff_bits_max": max((_coeff_bits(obj.to_json()) for obj in self.retained
                                   if hasattr(obj, "to_json")), default=0),
            "missing": sorted(set(self.missing)),
        }

    def spans(self) -> dict:
        """The spans in columns; times are seconds since the tracer was created."""
        names = sorted(self._names, key=self._names.get)
        return {"names": names, "name": list(self.span_name),
                "start": list(self.span_start), "end": list(self.span_end),
                "parent": list(self.span_parent)}


def merge(summaries: list) -> dict:
    """Sum the raw summaries of several processes (the traced CLI children)."""
    out = {"counts": {}, "self_s": {}, "total_s": {}, "max": {}, "nonzero": {},
           "caches": {}, "coeff_bits_max": 0, "missing": []}
    for part in summaries:
        for table in ("counts", "self_s", "total_s", "nonzero"):
            for key, value in part[table].items():
                out[table][key] = out[table].get(key, 0) + value
        for key, value in part["max"].items():
            out["max"][key] = max(out["max"].get(key, 0), value)
        for key, info in part["caches"].items():
            acc = out["caches"].setdefault(key, {"hits": 0, "misses": 0, "currsize": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["currsize"] = max(acc["currsize"], info["currsize"])
        out["coeff_bits_max"] = max(out["coeff_bits_max"], part["coeff_bits_max"])
        out["missing"] = sorted(set(out["missing"]) | set(part["missing"]))
    return out


def write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
