"""The package exports exactly its public names, and every name the benchmark tracer
wraps resolves.

A name is public by the rule in README ("Public names"); a helper is imported from its
own module and is no attribute of the package.

perfbench/tracer.py patches gtbasis functions and methods by name and reads
the cache_info() of the lru caches it lists; a name it cannot find is left
untraced and its per-layer metric reads zero.
"""

import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

import gtbasis

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


HELPERS = [
    ("scalars", "binom_frac"), ("scalars", "make_gaussian"),
    ("clifford", "blade_product"),
    ("hseries", "exp_series"), ("hseries", "power_series"), ("hseries", "binomial_expand"),
    ("ballint", "gamma_half"), ("ballint", "pi_power"), ("ballint", "monomial_ball_integral"),
    ("mvpoly", "radius_squared"),
    ("gegenbauer", "series_oracle"),
]


@pytest.mark.parametrize("name", gtbasis.__all__)
def test_public_name_resolves(name):
    assert getattr(gtbasis, name, None) is not None


def test_the_package_exports_exactly_all():
    exported = {name for name, value in vars(gtbasis).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == set(gtbasis.__all__)
    assert len(gtbasis.__all__) == len(set(gtbasis.__all__))


@pytest.mark.parametrize("mod_name, name", HELPERS)
def test_a_helper_is_imported_from_its_module(mod_name, name):
    assert not hasattr(gtbasis, name)
    assert name not in gtbasis.__all__
    assert callable(getattr(importlib.import_module(f"gtbasis.{mod_name}"), name))


@pytest.mark.parametrize("mod_name, target", sorted({t[:2] for t in TRACER.TARGETS}))
def test_traced_target_resolves(mod_name, target):
    module = importlib.import_module(f"gtbasis.{mod_name}")
    if "." in target:
        # the tracer patches a method on the class that defines it
        cls_name, attr = target.split(".", 1)
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(vars(module).get(target))


@pytest.mark.parametrize("mod_name, attr", [c[:2] for c in TRACER.CACHES])
def test_traced_cache_resolves(mod_name, attr):
    module = importlib.import_module(f"gtbasis.{mod_name}")
    assert hasattr(getattr(module, attr), "cache_info")
