"""Steadiness check: run the benchmark repeatedly and report each metric's spread.

    python3 bench/steady.py --runs 10 --first-seed 100 \
                            [--compare bench/results/steady-A.json] --save steady-B.json

Run ``i`` uses seed ``first-seed + i`` and runs every workload of
BENCHMARK.json, in the listed order when ``i`` is even and reversed when it is
odd.  For every end-to-end metric of every workload it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median and that spread as a share of the metric's bound in BENCHMARK.json.  It also
prints the failed share of operations, which must be the same in every run.
With ``--compare`` it prints each median's change against an earlier set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results: dict, spec: dict, earlier: dict | None) -> bool:
    steady = True
    for workload, runs in results.items():
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        fractions = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed/attempted {', '.join(shares)}")
        if len(fractions) != 1 or not all(r["correct"] for r in runs):
            steady = False
            print("  failed share differs between runs, or a run was not correct")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (
                f"  {name:12s} median {med:10.5g} {metric['unit']:3s} "
                f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:7.2%} "
                f"= {spread / bound:5.2f} x bound {bound:g}"
            )
            if name != "setup_s" and spread > bound / 3:
                steady = False
                line += "  (above a third of the bound)"
            if earlier is not None and workload in earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload]
                )
                change = (med - before) / before
                line += f"  vs earlier median {before:.5g}: {change:+.2%}"
                if change > bound:
                    steady = False
                    line += " (worse by more than the bound)"
            print(line)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", default=None, help="a file saved by an earlier --save")
    parser.add_argument("--save", default=None, help="file name under bench/results/")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list] = {name: [] for name in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + i, spec["run_seconds"])
            results[workload].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"run {i} {workload}: wall_s {wall:.4f}", file=sys.stderr, flush=True)
    if args.save:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / args.save).write_text(json.dumps(results, indent=1))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    return 0 if summarize(results, spec, earlier) else 1


if __name__ == "__main__":
    sys.exit(main())
