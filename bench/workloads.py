"""The benchmark's three workloads: inputs from the seed, operations, checks.

Each workload is a list of ``Op``s.  One pass runs every op once; the
child process times each op and, outside the timed interval, runs the op's
check against the independent references in ``reference.py``.  A check returns
``None`` when the output is right and a one-line reason otherwise.

Statistical checks carry their level as a family: the chain workload's
KS tests share the pre-registered 0.1% level (Bonferroni), so a correct
program fails a run by chance at most once in a thousand seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

import reference as ref

TEST_LEVEL = 0.001
VERIFY_RUNS = ((42, False), (7, True))  # (seed, --negative-control), as in the README
VERIFY_ARGS = ["--reps", "10000", "--parallel", "2"]
VERIFY_DENSITY = "cosine:0.3"
CHAIN_N = 1_000_000
CHAIN_M = 16
SWEEP_GRID = "1024,4096,16384,65536"
METRICS = ("tv", "l1", "l2", "hellinger", "hellinger-sq")


@dataclass
class Op:
    """One operation of a pass.  ``kept_failure`` marks a named known fault."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    kept_failure: bool = False


@dataclass
class Workload:
    name: str
    density: str  # spec whose model set-up time is measured
    ops: list[Op]
    # property check run once per run on the warm-up pass's outputs
    once: Callable[[list], str | None] | None = None


def lecam_cli(argv: list[str]) -> tuple[int, str]:
    """``lecam.cli.main(argv)`` in process, with its standard output captured."""
    import lecam.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lecam.cli.main(argv)
    return rc, buf.getvalue()


def _close(value: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - want) <= max(rel * abs(want), abs_tol)


def build(name: str, seed: int, work: Path) -> Workload:
    return {"verify": verify, "chain": chain, "bounds": bounds}[name](seed, work)


# --- verify -----------------------------------------------------------------


def _check_verify(out, negative: bool) -> str | None:
    rc, text = out
    if rc != (1 if negative else 0):
        return f"exit code {rc}"
    records = [json.loads(line) for line in text.splitlines()]
    names = [r["name"] for r in records]
    expected = 10 if negative else 8
    if len(records) != expected:
        return f"{len(records)} reports, expected {expected}"
    f = ref.RefDensity(VERIFY_DENSITY)
    for rec in records:
        control = rec["details"].get("negative_control", False)
        if rec["passed"] == control:
            return f"{rec['name']}: passed={rec['passed']} (negative control={control})"
    if sum(r["details"].get("negative_control", False) for r in records) != expected - 8:
        return f"negative controls in {names}"
    risk = next(r for r in records if r["name"].startswith("risk-transfer["))
    d = risk["details"]
    n, m = 1000, 16
    theta1 = float(f.cell_masses(m)[0])
    if not _close(d["theta1"], theta1, 1e-10):
        return f"theta1 {d['theta1']} != {theta1}"
    if abs(d["risk_target"] - theta1 * (1 - theta1) / n) > 4 * d["risk_target_se"]:
        return f"risk_target {d['risk_target']} off theta1(1-theta1)/n by > 4 SE"
    p_hat = float(ref.fhat_cdf(f.cell_masses(m))(1.0 / m))
    risk_source = p_hat * (1 - p_hat) / n + (p_hat - theta1) ** 2
    if abs(d["risk_source"] - risk_source) > 4 * d["risk_source_se"]:
        return f"risk_source {d['risk_source']} off {risk_source} by > 4 SE"
    h2 = ref.reconstruction_h2(f, m)
    tv_budget = math.sqrt(-2.0 * math.expm1(n * math.log1p(-h2 / 2.0)))
    if not _close(d["tv_budget"], tv_budget, 1e-6):
        return f"tv_budget {d['tv_budget']} != {tv_budget}"
    return None


def verify(seed: int, work: Path) -> Workload:
    del seed, work  # the suite's checks are statistical; its seeds stay fixed
    ops = []
    for vseed, negative in VERIFY_RUNS:
        argv = ["verify", "--seed", str(vseed), *VERIFY_ARGS]
        if negative:
            argv.append("--negative-control")
        ops.append(
            Op(
                name=" ".join(argv),
                run=lambda argv=argv: lecam_cli(argv),
                check=lambda out, negative=negative: _check_verify(out, negative),
            )
        )

    def same_bytes_serial(outputs: list) -> str | None:
        serial = ["verify", "--seed", str(VERIFY_RUNS[0][0]), *VERIFY_ARGS]
        serial[serial.index("--parallel") + 1] = "1"
        if lecam_cli(serial) != outputs[0]:
            return "verify reports differ between --parallel 1 and --parallel 2"
        return None

    return Workload("verify", VERIFY_DENSITY, ops, once=same_bytes_serial)


# --- chain ------------------------------------------------------------------


def _ks(values: np.ndarray, cdf, level: float) -> str | None:
    if values.size == 0 or values.min() < 0.0 or values.max() > 1.0:
        return "values outside [0, 1]"
    p = stats.kstest(values, cdf).pvalue
    return None if p >= level else f"KS p-value {p:.3g} below {level:.3g}"


def _check_transport(out, f: ref.RefDensity, m: int, n: int, level: float) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    ys = np.fromstring(text, sep=" ")  # one float array, no per-line str objects
    if ys.size != n:
        return f"{ys.size} output values, expected {n}"
    return _ks(ys, ref.fhat_cdf(f.cell_masses(m)), level)


def _check_kernel(ys, f: ref.RefDensity, m: int, n: int, level: float) -> str | None:
    ys = np.asarray(ys)
    if ys.size != n:
        return f"{ys.size} output values, expected {n}"
    return _ks(ys, ref.fhat_cdf(f.cell_masses(m)), level)


def _check_white_noise(out, f: ref.RefDensity, n: int, m: int, level: float) -> str | None:
    traj, incs, ystar = out
    grid = traj.times.size - 1
    t = np.arange(grid + 1) / grid
    if not np.array_equal(traj.times, t) or traj.values[0] != 0.0:
        return "white-noise grid or start is wrong"
    # drift over each grid cell by 8-point Gauss-Legendre, exact far below the noise
    nodes, weights = np.polynomial.legendre.leggauss(8)
    x = (t[:-1, None] + t[1:, None]) / 2.0 + nodes[None, :] / (2.0 * grid)
    drift = (np.sqrt(f.pdf(x)) * weights).sum(axis=1) / (2.0 * grid)
    noise = np.diff(traj.values) - drift
    sd = math.sqrt(1.0 / grid) / (2.0 * math.sqrt(n))
    p = stats.kstest(noise / sd, "norm").pvalue
    if p < level:
        return f"white-noise increments: KS p-value {p:.3g} below {level:.3g}"
    if not np.allclose(incs, np.diff(traj.values[:: grid // m]), rtol=0, atol=1e-15):
        return "increments differ from the trajectory's cell differences"
    if not np.array_equal(ystar.times, t) or ystar.values[0] != 0.0:
        return "y* grid or start is wrong"
    if abs(ystar.values[-1] - traj.values[-1]) > 1e-12:
        return f"y*_1 = {ystar.values[-1]} but y_1 = {traj.values[-1]}"
    return None


def chain(seed: int, work: Path) -> Workload:
    import lecam.densities
    import lecam.experiments
    import lecam.kernels

    rng = np.random.default_rng([seed, 2])
    a1 = round(float(rng.uniform(0.05, 0.25)), 4)
    a2 = round(0.3 - a1, 4) * (1 if rng.uniform() < 0.5 else -1)
    spec = f"cosine:{a1},{a2}"  # sum |a_k| = 0.3 on every seed: eps, M and the work stay fixed
    f = ref.RefDensity(spec)
    s = [str(v) for v in rng.integers(1, 2**31, size=7)]
    level = TEST_LEVEL / 6  # six KS tests per pass share the 0.1% level

    counts_m, counts_n = 32, 100_000
    counts = rng.multinomial(counts_n, f.cell_masses(counts_m))
    in_m, in_n = 20, 100_000
    sample_file = work / "chain-sample.txt"
    sample_file.write_text("".join(f"{v:.12g}\n" for v in f.sample(in_n, rng)))
    nan_file = work / "chain-nan.txt"
    nan_file.write_text("0.125\nnan\n0.625\n")
    kernel_n = 100_000
    kernel_xs = f.sample(kernel_n, rng)
    wn_n, wn_m = 10_000, 64
    wn_grid = 64 * wn_m
    model = lecam.densities.parse_spec(spec)

    base = ["transport", "--density", spec]
    auto_m = ref.tuning_m(CHAIN_N, 1.0)

    def transport_op(label, argv, m, n, kept=False, check=None):
        return Op(
            name=label,
            run=lambda: lecam_cli(base + argv),
            check=check or (lambda out: _check_transport(out, f, m, n, level)),
            kept_failure=kept,
        )

    def white_noise():
        traj = lecam.experiments.sample_white_noise(model, wn_n, wn_grid, int(s[5]))
        incs = lecam.experiments.increments(traj, wn_m)
        ystar = lecam.kernels.synthesize_ystar(incs, wn_n, int(s[6]), wn_grid)
        return traj, incs, ystar

    ops = [
        transport_op(
            f"transport --n {CHAIN_N} --m {CHAIN_M}",
            ["--n", str(CHAIN_N), "--m", str(CHAIN_M), "--seed", s[0]], CHAIN_M, CHAIN_N,
        ),
        transport_op(
            f"transport --n {CHAIN_N} --auto-m",
            ["--n", str(CHAIN_N), "--auto-m", "--seed", s[1]], auto_m, CHAIN_N,
        ),
        transport_op(
            f"transport --m {counts_m} --counts",
            ["--m", str(counts_m), "--counts", ",".join(map(str, counts)), "--seed", s[2]],
            counts_m, counts_n,
        ),
        transport_op(
            f"transport --m {in_m} --in FILE",
            ["--m", str(in_m), "--in", str(sample_file), "--seed", s[3]], in_m, in_n,
        ),
        transport_op(
            "transport --m 4 --in FILE-with-nan (usage error expected)",
            ["--m", "4", "--in", str(nan_file), "--seed", "1"], 4, 0, kept=True,
            check=lambda out: None if out[0] == 2 else f"exit code {out[0]}, expected 2",
        ),
        Op(
            name=f"transport_chain({kernel_n}, {CHAIN_M}).sample",
            run=lambda: lecam.kernels.transport_chain(kernel_n, CHAIN_M).sample(
                kernel_xs, int(s[4])
            ),
            check=lambda ys: _check_kernel(ys, f, CHAIN_M, kernel_n, level),
        ),
        Op(
            name=f"sample_white_noise -> increments -> synthesize_ystar (T={wn_grid})",
            run=white_noise,
            check=lambda out: _check_white_noise(out, f, wn_n, wn_m, level),
        ),
    ]
    return Workload("chain", spec, ops)


# --- bounds -----------------------------------------------------------------


def _check_distance(out, want: float) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    value = json.loads(text)["value"]
    if not _close(value, want, 1e-6, 1e-9):
        return f"value {value} but the reference is {want:.10g}"
    return None


def _check_sweep(out, f: ref.RefDensity, fmt: str, h2_cache: dict) -> str | None:
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "n,m,measured,bound,ratio":
            return f"csv header {lines[0]!r}"
        rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
    else:
        payload = json.loads(text)
        rows = payload["rows"]
    grid = [int(v) for v in SWEEP_GRID.split(",")]
    if [int(r["n"]) for r in rows] != grid:
        return f"rows for n = {[r['n'] for r in rows]}"
    measured = []
    for r in rows:
        n, m = int(r["n"]), ref.tuning_m(int(r["n"]), 1.0)
        if int(r["m"]) != m:
            return f"n={n}: m={r['m']}, the tuning rule gives {m}"
        if (f.spec, m) not in h2_cache:
            h2_cache[f.spec, m] = ref.reconstruction_h2(f, m)
        want = math.sqrt(n * h2_cache[f.spec, m])
        bound = ref.reconstruction_rate(n, m, 1.0)
        if not _close(r["measured"], want, 1e-6, 1e-12):
            return f"n={n}: measured {r['measured']} but the reference is {want:.10g}"
        if not _close(r["bound"], bound, 1e-9) or not _close(r["ratio"], want / bound, 1e-6):
            return f"n={n}: bound or ratio off the reference"
        measured.append(want)
    if fmt == "json":
        slope = np.polyfit(np.log(grid), np.log(measured), 1)[0]
        if payload["exact_zero"] or not _close(payload["slope"], slope, 1e-6, 1e-9):
            return f"slope {payload['slope']} but the reference is {slope:.10g}"
    return None


def bounds(seed: int, work: Path) -> Workload:
    del work
    import lecam.equivalence
    import lecam.measures

    rng = np.random.default_rng([seed, 3])

    def r6(lo, hi):
        return round(float(rng.uniform(lo, hi)), 6)

    # The seed varies no input whose size or shape sets the amount of work:
    # the sweeps use fixed densities, and each density pair crosses at fixed
    # dyadic points (1/4 and 3/4; 1/2), which the CLI's knot-free quadrature
    # resolves in the same number of refinements whatever the amplitudes.
    # Dyadic crossings are that quadrature's best case: its dyadic cells have
    # the kinks on their edges.
    densities = ["cosine:0.3", "affine:0.5"]
    pairs_density = [
        (f"cosine:{r6(0.1, 0.2)}", f"cosine:{r6(0.3, 0.45)}"),
        (f"affine:{r6(0.3, 0.7)}", "uniform"),
    ]
    # The CLI computes the crossing points of unequal-variance normals with
    # the wrong sign (see CHANGES.md), so their TV and L1 quadratures run
    # without knots and cost several-fold more or less with where the kinks
    # fall.  The seeded unequal-variance pair is therefore asked only the
    # smooth metrics, and TV and L1 go to the fixed pair N(0,1), N(0,4), whose
    # cost is the same on every seed and falls once the crossings are right.
    mu = [r6(-1.0, 1.0) for _ in range(4)]
    v_equal = r6(0.5, 2.0)
    pairs_normal = [
        ((mu[0], v_equal), (mu[1], v_equal), METRICS),
        ((mu[2], r6(0.3, 0.9)), (mu[3], r6(1.2, 3.0)), ("l2", "hellinger", "hellinger-sq")),
        ((0.0, 1.0), (0.0, 4.0), ("tv", "l1")),
    ]
    sweep_seed = str(int(rng.integers(1, 2**31)))
    h2_cache: dict = {}
    ops = []
    for spec in densities:
        for fmt in ("csv", "json"):
            argv = ["sweep", "--density", spec, "--n-grid", SWEEP_GRID,
                    "--seed", sweep_seed, "--format", fmt]
            ops.append(Op(
                name=" ".join(argv),
                run=lambda argv=argv: lecam_cli(argv),
                check=lambda out, f=ref.RefDensity(spec), fmt=fmt: _check_sweep(out, f, fmt, h2_cache),
            ))
    for a, b, metrics in pairs_normal:
        for metric in metrics:
            argv = ["distance", f"--normal={a[0]},{a[1]}", f"--normal={b[0]},{b[1]}",
                    "--metric", metric]
            want = ref.normal_distance(metric, a, b)
            ops.append(Op(" ".join(argv), lambda argv=argv: lecam_cli(argv),
                          lambda out, want=want: _check_distance(out, want)))
    for fa, fb in pairs_density:
        for metric in METRICS:
            argv = ["distance", "--density", fa, "--density", fb, "--metric", metric]
            want = ref.density_distance(metric, ref.RefDensity(fa), ref.RefDensity(fb))
            ops.append(Op(" ".join(argv), lambda argv=argv: lecam_cli(argv),
                          lambda out, want=want: _check_distance(out, want)))
    kept = ["distance", "--normal=0,1e-6", "--normal=1,1", "--metric", "tv"]
    want_kept = ref.normal_distance("tv", (0.0, 1e-6), (1.0, 1.0))
    ops.append(Op(" ".join(kept), lambda: lecam_cli(kept),
                  lambda out: _check_distance(out, want_kept), kept_failure=True))

    # two laws of 1000 atoms each on a grid of 1500 points, sharing 600 atoms
    points = rng.permutation(1500)
    atoms_a, atoms_b = points[:1000], np.concatenate([points[:600], points[1000:1400]])
    laws = []
    for atoms in (atoms_a, atoms_b):
        masses = rng.dirichlet(np.ones(atoms.size))
        laws.append({float(p) / 1500: float(w) for p, w in zip(atoms, masses)})
    law_a, law_b = (lecam.measures.DiscreteLaw(tuple(law.items())) for law in laws)
    h2_want, tv_want = ref.discrete_distances(*laws)
    ops.append(Op("hellinger_sq_discrete (1000 + 1000 atoms)",
                  lambda: lecam.measures.hellinger_sq_discrete(law_a, law_b),
                  lambda v: None if _close(v, h2_want, 1e-12, 1e-15) else f"{v} != {h2_want}"))
    ops.append(Op("tv_discrete (1000 + 1000 atoms)",
                  lambda: lecam.measures.tv_discrete(law_a, law_b),
                  lambda v: None if _close(v, tv_want, 1e-12, 1e-15) else f"{v} != {tv_want}"))

    total_n, gamma = 2**20, r6(0.5, 1.0)
    m_want, total_want = ref.chain_total_minimum(total_n, gamma)
    ops.append(Op(
        f"minimize_total(n={total_n}, gamma={gamma})",
        lambda: lecam.equivalence.minimize_total(total_n, gamma),
        lambda out: None if out[0] == m_want and _close(out[1], total_want, 1e-12)
        else f"{out} != {(m_want, total_want)}",
    ))
    return Workload("bounds", densities[0], ops)
