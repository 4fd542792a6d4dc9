"""The names the benchmark tracer patches still exist in azw.

bench/tracing.py replaces functions by name from outside the package; a
rename or deletion there would otherwise only surface as a crash of
`bench/run.py --trace 1`. The tracer module is stdlib-only and is just
read here.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402

from azw.polynomials import ExactRationalFunction  # noqa: E402


@pytest.mark.parametrize("module_name", sorted(tracing.FUNCTIONS))
def test_traced_functions_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in tracing.FUNCTIONS[module_name] if not hasattr(module, name)]
    assert not missing, f"{module_name} lacks traced names {missing}"


def test_traced_rational_methods_exist():
    missing = [name for name in tracing.RATIONAL_METHODS
               if name not in ExactRationalFunction.__dict__]
    assert not missing


@pytest.mark.parametrize("module_name,name,_metric", tracing.GRAPH_CACHES)
def test_graph_caches_keep_their_cache_api(module_name, name, _metric):
    fn = getattr(importlib.import_module(module_name), name)
    assert callable(fn.cache_clear) and callable(fn.cache_info)
