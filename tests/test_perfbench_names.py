"""The benchmark's tracer wraps ogq functions by name; a rename in the
package must fail here rather than silently break a traced benchmark run.
So must a traced module that `import ogq; from ogq import cli` stops loading:
the tracer reads each from sys.modules."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_importing_the_cli_loads_every_traced_module(tracing):
    # Tracer.install looks each module up in sys.modules; one imported lazily
    # would raise KeyError there and fail every traced benchmark run
    probe = ("import json, sys, ogq; from ogq import cli; "
             "print(json.dumps([name for name in sys.modules if name.startswith('ogq.')]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    traced = {f"ogq.{modname}" for modname, _attr, _span in tracing.TRACED}
    assert traced - set(json.loads(done.stdout)) == set()
