"""Every ``lecam`` name the benchmark reaches must still exist.

``bench/tracing.py`` resolves each ``(module, attribute)`` of
``LAYER_FUNCTIONS`` with ``getattr`` when ``--trace 1`` installs its spans,
so a renamed or deleted function breaks the traced run.  The workloads'
library operations call ``lecam.<module>.<name>`` chains, and ``bench/run.py``
imports names ``from lecam.<module>``; no other test runs those operations, so
a deletion would fail only at benchmark time.  These tests load or parse the
benchmark's files without running anything and resolve every such name.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing_names", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.LAYER_FUNCTIONS]


def _dotted(node) -> str | None:
    """``a.b.c`` for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _bench_names():
    """(module, attribute) for each ``lecam.<module>.<name>...`` chain and
    ``from lecam.<module> import <name>`` in the benchmark's Python files."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lecam."):
                names.update((node.module, alias.name) for alias in node.names)
            # read chains only: bench/tracing.py assigns lecam.harness.ThreadPoolExecutor
            loaded = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            chain = _dotted(node) if loaded else None
            if chain and chain.startswith("lecam.") and chain.count(".") >= 2:
                _, module, attr = chain.split(".", 2)
                names.add((f"lecam.{module}", attr))
    return sorted(names)


@pytest.mark.parametrize("module, attr", _layer_functions())
def test_traced_name_resolves(module, attr):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)


def test_the_workloads_library_names_are_found():
    found = {f"{module}.{attr}" for module, attr in _bench_names()}
    assert {
        "lecam.cli.main",
        "lecam.densities.parse_spec",
        "lecam.experiments.sample_white_noise",
        "lecam.experiments.increments",
        "lecam.kernels.synthesize_ystar",
        "lecam.kernels.transport_chain",
        "lecam.measures.DiscreteLaw",
        "lecam.measures.hellinger_sq_discrete",
        "lecam.measures.tv_discrete",
        "lecam.equivalence.minimize_total",
    } <= found


@pytest.mark.parametrize("module, attr", _bench_names())
def test_benchmark_name_resolves(module, attr):
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)
