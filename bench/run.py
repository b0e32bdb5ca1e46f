"""Benchmark entry point for the lecam CLI and library.

    python3 bench/run.py --workload {verify,chain,bounds} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  It

1. runs the workload in its own child process (``child.py``), which imports
   ``lecam`` from ``src``, times whole passes of the workload's operations
   and checks every output against the references in ``reference.py``;
2. with ``--trace 0``, then times set-up in fresh interpreters: ``import
   lecam.cli`` plus building and validating the workload's density model
   (the child has written the bytecode cache by then, so this is what a user
   pays on every call); with ``--trace 1``, reads ``python -X importtime``;
3. prints every metric with its unit; the last line of standard output is
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics come from untraced runs only; ``--trace 1`` reports the
per-layer metrics listed in BENCHMARK.json.  Raw per-pass figures go to
``bench/results/`` and the traced run's spans to
``bench/results/trace-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
DEADLINE_S = 170.0

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import lecam.cli
from lecam.densities import parse_spec
parse_spec(sys.argv[1]).validate()
print(time.perf_counter() - t0)
"""


def _env() -> dict:
    env = dict(os.environ)
    # an installed package imports from cached bytecode; let the child write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=max(timeout, 1.0),
    )


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def setup_times(density: str, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        proc = _python(["-c", SETUP_CODE, density], deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def import_times(deadline: float) -> dict[str, float]:
    """Median cumulative import time of lecam.cli and scipy.stats, from -X importtime.

    scipy loads ``scipy.stats`` through its lazy module ``__getattr__``, and
    importtime prints no line for the package itself, only for its
    submodules; the scipy.stats cost is the sum of the outermost
    ``scipy.stats.*`` lines.
    """
    cli, scipy_stats = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = _python(["-X", "importtime", "-c", "import lecam.cli"], deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"importtime interpreter failed: {proc.stderr.strip()}")
        rows = []  # (depth, module, cumulative seconds)
        for line in proc.stderr.splitlines():
            # "import time:   self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
        cli.append(next(t for _, name, t in rows if name == "lecam.cli"))
        stats_rows = [(d, t) for d, name, t in rows if name.split(".")[:2] == ["scipy", "stats"]]
        top = min(d for d, _ in stats_rows)
        scipy_stats.append(sum(t for d, t in stats_rows if d == top))
    return {
        "cli.import_s": statistics.median(cli),
        "cli.import_scipy_stats_s": statistics.median(scipy_stats),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return _fail(f"{spec_file} is missing")
    if not (ROOT / "src" / "lecam" / "__init__.py").is_file():
        return _fail(f"no lecam sources under {ROOT / 'src'}")
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    RESULTS.mkdir(exist_ok=True)

    tag = f"{args.workload}-seed{args.seed}"
    try:
        child = _python(
            [
                str(BENCH / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--src", str(ROOT / "src"), "--work", str(RESULTS / "work"),
                "--spans", str(RESULTS / f"trace-{tag}.jsonl"),
            ],
            deadline - time.monotonic() - 15.0,
        )
    except subprocess.TimeoutExpired:
        return _fail("the workload process ran out of time and was stopped")
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        return _fail(f"workload process exited with {child.returncode}")
    raw = json.loads(child.stdout.splitlines()[-1])

    try:
        if args.trace:
            layers = {**raw["per_layer"], **import_times(deadline)}
            wanted = spec["per_layer"]
            values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        else:
            raw["setup_s"] = setup_times(density=raw["density"], deadline=deadline)
            wanted = spec["end_to_end"]
            values = {
                "wall_s": statistics.median(raw["wall_s"]),
                "cpu_s": statistics.median(raw["cpu_s"]),
                "peak_rss_mb": raw["peak_rss_mb"],
                "setup_s": statistics.median(raw["setup_s"]),
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))
    print(
        f"{args.workload} seed={args.seed}: {raw['passes']} passes, "
        f"{raw['attempted']} operations attempted, {raw['failed']} failed"
    )
    for problem in raw["problems"]:
        print(f"  wrong: {problem}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:42s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
