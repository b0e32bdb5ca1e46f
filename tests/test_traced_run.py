"""The traced benchmark run of ``verify`` finishes and prints the untraced bytes.

``bench/run.py --trace 1`` installs ``bench/tracing.py``'s spans and runs each
workload twice more: once recording spans and once measuring tracemalloc
peaks, which runs every ``peak`` span under one lock.  A schedule that makes a
pool worker wait for that lock while the lock's holder waits for the pool
hangs only there.  This test runs the three passes in a fresh interpreter,
with a timeout, and writes no bytecode next to ``bench/tracing.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PASSES = """
import contextlib, hashlib, importlib.util, io, json, sys

spec = importlib.util.spec_from_file_location("bench_tracing_run", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
recorder = tracing.Recorder()
tracing.install(recorder)

import lecam.cli

argv = ["verify", "--seed", "42", "--reps", "400", "--parallel", "2"]
out = []
for flag in (None, "recording", "measure_memory"):
    if flag:
        setattr(recorder, flag, True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lecam.cli.main(argv)
    recorder.recording = recorder.measure_memory = False
    out.append([code, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
print(json.dumps({"passes": out, "spans": len(recorder.spans), "peaks": sorted(recorder.peaks_mb)}))
"""


def test_traced_verify_finishes_with_the_untraced_bytes():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PASSES, str(ROOT / "bench" / "tracing.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    (plain, traced, measured) = result["passes"]
    assert plain[0] == traced[0] == measured[0] == 0
    assert plain[1] == traced[1] == measured[1]
    assert result["spans"] > 0
    assert result["peaks"] == ["harness.verify_risk_transfer", "harness.verify_ystar_moments"]
