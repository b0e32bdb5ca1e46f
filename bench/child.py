"""One workload run inside its own process; started by ``run.py``.

Imports ``lecam`` from the checkout's ``src``, builds the workload's inputs
from the seed, runs one untimed warm-up pass without checks, then whole timed
passes until ``--seconds`` have been spent.  Each timed op's output is checked
outside the timed interval.  ``peak_rss_mb`` is the high-water mark read after
the warm-up pass, before any check has run, so it is the program's alone.
With ``--trace 1`` untraced and traced passes alternate, and one last pass
records tracemalloc peaks.  The last line of standard output is a JSON object
with the raw per-pass figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

MIN_PASSES = 3


def _digest(obj, h) -> None:
    if isinstance(obj, str):
        h.update(obj.encode())
    elif isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _digest(item, h)
    elif dataclasses.is_dataclass(obj):
        _digest([getattr(obj, f.name) for f in dataclasses.fields(obj)], h)
    else:
        h.update(repr(obj).encode())


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.verdicts: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, recorder=None, keep=False, check=True) -> tuple[float, float, list]:
        """Run every op once; return wall and cpu seconds summed over the ops.

        The outputs are returned only with ``keep``; otherwise each is dropped
        after its check, so it does not add to the next op's peak memory.
        Without ``check`` the outputs are not checked and nothing is counted.
        """
        wall = cpu = 0.0
        outputs = []
        gc.collect()
        for op in self.workload.ops:
            error = None
            if recorder is not None:
                recorder.recording = True
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            if recorder is not None:
                recorder.recording = False
            wall += t1 - t0
            cpu += c1 - c0
            if keep:
                outputs.append(out)
            problem = (error or self._check(op, out)) if check else None
            del out
            if check:
                self.attempted += 1
            if problem is not None:
                self.failed += 1
                if not op.kept_failure:
                    self.problems.append(f"{op.name}: {problem}")
        return wall, cpu, outputs

    def _check(self, op, out) -> str | None:
        # identical output bytes get the verdict already computed for them
        h = hashlib.sha256()
        _digest(out, h)
        key = (op.name, h.hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = op.check(out)
        return self.verdicts[key]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", required=True, help="JSON-lines file for traced spans")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    import tracing
    import workloads

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    import lecam.cli  # noqa: F401

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, work)
    runner = Runner(workload)

    # warm-up: neither timed, checked nor counted; outputs kept only for `once`
    _, _, outputs = runner.run_pass(keep=workload.once is not None, check=False)
    peak_rss_mb = _max_rss_mb()
    if workload.once is not None:
        problem = workload.once(outputs)
        if problem is not None:
            runner.problems.append(problem)
    del outputs

    walls, cpus, traced_walls, overheads = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, cpu, _ = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
        if recorder is not None:
            traced, _, _ = runner.run_pass(recorder)
            traced_walls.append(traced)
            overheads.append(traced - wall)  # paired, so slow drift cancels

    result = {
        "density": workload.density,
        "passes": len(walls),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        # the same high-water mark at the end, after every check has run
        "peak_rss_end_mb": _max_rss_mb(),
    }
    if recorder is not None:
        layers = tracing.layer_metrics(recorder, len(traced_walls))
        layers["trace.overhead_s"] = statistics.median(overheads)
        covered = sum(layers[f"self.{layer}_s"] for layer in tracing.LAYERS)
        layers["trace.coverage_pct"] = 100.0 * covered / statistics.mean(traced_walls)
        with open(args.spans, "w") as fh:
            for sid, parent, name, t0, t1 in recorder.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
        recorder.measure_memory = True
        runner.run_pass()
        recorder.measure_memory = False
        layers.update(
            {f"{k}_peak_mb": v for k, v in recorder.peaks_mb.items()}
        )
        result["per_layer"] = layers
        result["attempted"], result["failed"] = runner.attempted, runner.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
