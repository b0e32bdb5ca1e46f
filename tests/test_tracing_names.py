"""Every function the traced benchmark run wraps must still exist.

``bench/tracing.py`` resolves each ``(module, attribute)`` of
``LAYER_FUNCTIONS`` with ``getattr`` when ``--trace 1`` installs its spans,
so a renamed or deleted function breaks the traced run.  This test loads
that file without installing anything and resolves every name.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing_names", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.LAYER_FUNCTIONS]


@pytest.mark.parametrize("module, attr", _layer_functions())
def test_traced_name_resolves(module, attr):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)
