"""Every command line the benchmark passes must still parse.

``bench/workloads.py`` drives the CLI through ``lecam_cli(argv)`` with fixed
option names, so an option that ``src/`` renames or deletes breaks the
benchmark run rather than a test.  This test loads that file without
editing it, builds each workload, runs only its CLI operations with
``lecam_cli`` replaced by a recorder (the ``verify`` workload's ``once``
check adds its serial argv), and parses every recorded argv with the
shipped parser.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from lecam.cli import build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads.py imports reference.py
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify", "chain", "bounds"])
def test_benchmark_argvs_parse(name, monkeypatch, tmp_path):
    workloads = _load_workloads(monkeypatch)
    argvs = []

    def record(argv):
        argvs.append(list(argv))
        return 0, ""

    monkeypatch.setattr(workloads, "lecam_cli", record)
    workload = workloads.build(name, 1, tmp_path)
    for op in workload.ops:
        if "lecam_cli" in op.run.__code__.co_names:  # library ops call lecam itself
            op.run()
    assert argvs, f"the {name} workload ran no CLI operation"
    if workload.once is not None:
        assert workload.once([(0, "")]) is None

    parser = build_parser()
    refused = []
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(argv)
    assert refused == [], f"{len(refused)} of {len(argvs)} benchmark argvs do not parse"
