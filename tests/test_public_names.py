"""Every public name resolves, and so does every name the benchmark tracer wraps.

perfbench/tracer.py patches gtbasis functions and methods by name and reads
the cache_info() of the lru caches it lists; a name it cannot find is left
untraced and its per-layer metric reads zero.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import gtbasis

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("name", gtbasis.__all__)
def test_public_name_resolves(name):
    assert getattr(gtbasis, name, None) is not None


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
