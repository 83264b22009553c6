"""The benchmark tracer patches library functions and methods by name.

bench/tracing.py lists every (module, attribute) it wraps; a refactor that
renames or moves one of them would make `bench/run.py --trace 1` fail, so
each site is checked here against the library as it stands.
"""

import importlib.util
from pathlib import Path

import pytest

import orthogeo

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
FUNCTION_SITES = sorted(
    {site for _, sites in tracing.FUNCTIONS + tracing.COUNTED for site in sites}
)


@pytest.mark.parametrize("module, attr", FUNCTION_SITES)
def test_function_site_exists(module, attr):
    namespace = getattr(orthogeo, module).__dict__
    assert callable(namespace.get(attr)), f"orthogeo.{module} has no {attr}"


@pytest.mark.parametrize("name, module, cls, method", tracing.METHODS)
def test_method_site_exists(name, module, cls, method):
    owner = getattr(orthogeo, module).__dict__[cls]
    assert method in owner.__dict__, f"{cls}.{method} is not defined on {cls} itself"
