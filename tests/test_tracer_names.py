"""The benchmark's tracer wraps library functions by name; each must exist.

perfbench/tracing.py lists its layer boundaries in BOUNDARIES, and
Tracer.install reads each limoctrl.<module>.<name> with getattr, so a
renamed or removed function would make every traced benchmark run fail.
The file is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.BOUNDARIES.items()
            for name in names]


@pytest.mark.parametrize("module, name", _boundaries())
def test_each_traced_boundary_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"limoctrl.{module}"), name))
