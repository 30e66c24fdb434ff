"""The benchmark's tracer wraps ogq functions by name; a rename in the
package must fail here rather than silently break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    assert tracing.TRACED
    for modname, attr, _span in tracing.TRACED:
        module = importlib.import_module(f"ogq.{modname}")
        assert callable(getattr(module, attr, None)), f"ogq.{modname}.{attr}"


def test_every_counted_cache_is_an_lru_cache(tracing):
    from ogq import quantum

    assert tracing.QUANTUM_CACHES
    for attr in tracing.QUANTUM_CACHES:
        assert hasattr(getattr(quantum, attr, None), "cache_info"), f"ogq.quantum.{attr}"
