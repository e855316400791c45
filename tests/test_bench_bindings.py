"""Every function the benchmark tracer wraps still exists under its name.

bench/tracing.py binds layers by (module, attribute) at run time, so a
renamed or deleted function would otherwise surface only in the bench's
own tests.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

BINDINGS = sorted({(mod, attr) for mod, attr, *_ in tracing.SPANS + tracing.COUNTS})


@pytest.mark.parametrize("module,attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_bench_binding_resolves(module, attr):
    assert callable(getattr(tracing._resolve(module), attr, None))
