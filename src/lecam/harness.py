"""Monte Carlo verification of the chain's statistical claims.

Every check is deterministic given the master seed: substreams are named
by (check, purpose), so the suite gives identical reports however many
threads run it.  Statistical tests run at pre-registered levels (0.1% per test)
and moment checks use 4-standard-error bands; negative controls are
expected to fail and are reported as ordinary failing checks.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .approx import hellinger_sq, reconstruct
from .equivalence import RateParams, bound_density_reconstruction, choose_m
from .errors import DomainError, UsageError
from .experiments import format_float, map_slices, sample_iid, sqrt_cell_means, theta_of
from .kernels import (
    TentBasis,
    bin_counts,
    counts_to_midpoint_sample,
    transport_chain,
    ystar_values,
)
from .measures import DensityModel, hellinger_sq_product, tv_sandwich
from .rng import substream, substream_seq

__all__ = [
    "CheckReport",
    "DecisionProblem",
    "SweepResult",
    "TEST_LEVEL",
    "sig12",
    "verify_sufficiency",
    "verify_transport",
    "verify_ystar_moments",
    "theta1_problem",
    "merge_moments",
    "verify_risk_transfer",
    "rate_sweep",
    "run_suite",
]

TEST_LEVEL = 0.001  # pre-registered per-test significance level
MOMENT_BAND = 4.0   # standard-error band for moment checks
RISK_BLOCK = 100    # replications per risk-transfer block
# replications per y*-moment block: at m = 8 its 1.5 MB of bridge paths lifts glibc's
# trim threshold so warm suites stop refaulting the risk blocks' heap (1,000: ~90k faults)
YSTAR_BLOCK = 3_000
YSTAR_TIMES = (0.25, 0.5, 0.75, 1.0)  # where the y* mean and variance are checked


def sig12(x):
    """Round floats to 12 significant digits for stable serialized output."""
    if isinstance(x, (float, np.floating)):
        return float(format_float(x))
    if isinstance(x, dict):
        return {k: sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [sig12(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [sig12(v) for v in x.tolist()]
    return x


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check."""

    name: str
    passed: bool
    statistic: float
    p_value: float | None = None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "statistic": sig12(float(self.statistic)),
            "p_value": None if self.p_value is None else sig12(float(self.p_value)),
            "details": sig12(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


@dataclass(frozen=True)
class DecisionProblem:
    """A bounded-loss decision problem about a functional of the density.

    ``loss(true_value, actions)`` must map into [0, 1]; ``target`` extracts
    the estimand from the density.
    """

    loss: Callable
    target: Callable


def theta1_problem(m: int) -> DecisionProblem:
    """Estimate theta_1 = int_0^{1/m} f under squared loss clamped to [0, 1]."""

    def loss(true_value, actions):
        return np.clip((np.asarray(actions, dtype=float) - true_value) ** 2, 0.0, 1.0)

    def target(f: DensityModel) -> float:
        return float(theta_of(f, m)[0])

    return DecisionProblem(loss=loss, target=target)


def _merge_small_cells(table: np.ndarray, min_expected: float = 5.0):
    """Merge adjacent columns of a 2 x m table until all expected counts >= min."""
    cols = [table[:, j].astype(float) for j in range(table.shape[1])]
    merged = 0
    while len(cols) > 1:
        arr = np.column_stack(cols)
        expected = np.outer(arr.sum(axis=1), arr.sum(axis=0)) / arr.sum()
        if expected.min() >= min_expected:
            break
        j = int(np.argmin(expected.min(axis=0)))
        k = j + 1 if j + 1 < len(cols) else j - 1
        cols[min(j, k)] = cols[j] + cols[k]
        del cols[max(j, k)]
        merged += 1
    return np.column_stack(cols), merged


def verify_sufficiency(
    f: DensityModel,
    n: int,
    m: int,
    seed=0,
    theta_override=None,
    level: float = TEST_LEVEL,
) -> CheckReport:
    """Chi-square homogeneity of binned i.i.d. draws vs. multinomial draws.

    The two count vectors, each from n points, should be samples of the
    same multinomial law; a mismatched ``theta_override`` serves as the
    negative control.
    """
    if m < 2:
        raise UsageError(f"sufficiency test needs m >= 2 cells, got {m}")
    theta = theta_of(f, m) if theta_override is None else np.asarray(theta_override)
    counts_binned = bin_counts(sample_iid(f, n, substream_seq(seed, "iid")), m)
    counts_direct = substream(seed, "multinomial").multinomial(n, theta)
    table = np.vstack([counts_binned, counts_direct])
    table, merged = _merge_small_cells(table)
    if table.shape[1] == 1:
        raise UsageError(
            f"sufficiency test at n={n}, m={m}: merging cells to expected "
            "counts of 5 left a single cell, so there is nothing to test"
        )
    stat, p, dof, _ = stats.chi2_contingency(table, correction=False)
    return CheckReport(
        name=f"sufficiency[{f.name},m={m},n={n}]",
        passed=bool(p >= level),
        statistic=float(stat),
        p_value=float(p),
        details={
            "dof": int(dof),
            "level": level,
            "merged_cells": int(merged),
            "negative_control": theta_override is not None,
        },
    )


def verify_transport(
    f: DensityModel,
    n: int,
    m: int,
    seed=0,
    skip_reconstruction: bool = False,
    level: float = TEST_LEVEL,
) -> CheckReport:
    """KS test of the kernel-chain output against the exact f_hat_m CDF.

    ``skip_reconstruction=True`` stops the chain at the midpoint sample,
    mapped from cell indices to the midpoints themselves, the negative
    control: for any density its atoms cannot match the continuous
    reconstruction law.
    """
    fhat = reconstruct(f, m)
    xs = sample_iid(f, n, substream_seq(seed, "draw"))
    if skip_reconstruction:
        cells = counts_to_midpoint_sample(bin_counts(xs, m), substream_seq(seed, "mid"))
        ys = TentBasis(m).midpoints[cells]
    else:
        ys = transport_chain(n, m).sample(xs, substream_seq(seed, "chain"))
    res = stats.kstest(ys, fhat.cdf)
    return CheckReport(
        name=f"transport[{f.name},m={m},n={n}]"
        + (":skip-reconstruction" if skip_reconstruction else ""),
        passed=bool(res.pvalue >= level),
        statistic=float(res.statistic),
        p_value=float(res.pvalue),
        details={"level": level, "negative_control": skip_reconstruction},
    )


def verify_ystar_moments(
    f: DensityModel,
    n: int,
    m: int,
    replications: int = 10_000,
    seed=0,
) -> CheckReport:
    """Moment checks of the reassembled trajectory against the target process.

    Verifies E[y*_t] and Var[y*_t] = t / (4n) at each t in ``YSTAR_TIMES``,
    per-cell increment variances 1 / (4 n m), and zero covariance between
    disjoint increments, all within 4 Monte Carlo standard errors.

    Blocks of ``YSTAR_BLOCK`` replications, block b on substreams
    ``("increments" | "bridges", "block", b)``, return their rows
    [y*(YSTAR_TIMES), cell increments] to ``_blocked_moments``, the risk
    check's block path too: memory stays flat as ``replications`` grows.
    """
    R = _moment_replications(replications)
    g = sqrt_cell_means(f, m)
    sd = 1.0 / (2.0 * math.sqrt(n * m))
    edges = np.arange(1, m + 1, dtype=float) / m
    times = np.union1d(YSTAR_TIMES, edges)
    U = TentBasis(m).cdf_matrix(times)  # (m, T)
    t_idx, edge_idx = np.searchsorted(times, YSTAR_TIMES), np.searchsorted(times, edges)

    def block(b: int, size: int) -> np.ndarray:
        ybar = substream(seed, "increments", "block", b).normal(loc=g, scale=sd, size=(size, m))
        ystar = ystar_values(ybar, U, n, substream(seed, "bridges", "block", b))  # (size, T)
        incs = np.diff(ystar[:, edge_idx], axis=1, prepend=0.0)
        return np.column_stack([ystar[:, t_idx], incs])

    _, mean, m2 = _blocked_moments(block, R, YSTAR_BLOCK)
    cov = m2 / (R - 1)
    var = np.diag(cov)

    z_scores: dict[str, float] = {}
    for k, t in enumerate(YSTAR_TIMES):
        exp_mean = float(g @ U[:, t_idx[k]])
        z_scores[f"mean@t={t:g}"] = (mean[k] - exp_mean) / math.sqrt(var[k] / R)
        z_scores[f"var@t={t:g}"] = (var[k] - t / (4.0 * n)) / (var[k] * math.sqrt(2.0 / (R - 1)))

    u_edges = np.column_stack([np.zeros(m), U[:, edge_idx]])
    exp_incs = g @ np.diff(u_edges, axis=1)
    var_inc = 1.0 / (4.0 * n * m)
    inc = len(YSTAR_TIMES)  # the increments' first column
    for i in range(m):
        v = var[inc + i]
        z_scores[f"inc-var@{i + 1}"] = (v - var_inc) / (v * math.sqrt(2.0 / (R - 1)))
        z_scores[f"inc-mean@{i + 1}"] = (mean[inc + i] - exp_incs[i]) / math.sqrt(v / R)
    cov_se = var_inc / math.sqrt(R)
    for i in range(m):
        for j in range(i + 1, m):
            z_scores[f"inc-cov@{i + 1},{j + 1}"] = cov[inc + i, inc + j] / cov_se

    worst = max(abs(z) for z in z_scores.values())
    return CheckReport(
        name=f"ystar-moments[{f.name},n={n},m={m},reps={R}]",
        passed=bool(worst <= MOMENT_BAND),
        statistic=float(worst),
        details={
            "band": MOMENT_BAND,
            "worst_band": max(z_scores, key=lambda k: abs(z_scores[k])),
            "z_scores": {k: float(v) for k, v in z_scores.items()},
        },
    )


def _moment_replications(replications) -> int:
    if int(replications) < 100:
        raise UsageError("need at least 100 replications for moment bands")
    return int(replications)


def merge_moments(a: tuple, b: tuple) -> tuple:
    """Chan, Golub & LeVeque's pairwise update of (count, mean, M2) triples.

    For a vector mean, M2 is the matrix of summed deviation products.
    Merging block moments in a fixed order gives the same floats however the
    blocks were scheduled.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    outer = np.multiply.outer(delta, delta)
    return n, mean_a + delta * n_b / n, m2_a + m2_b + outer * n_a * n_b / n


def _moments(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean vector, co-moment matrix) of a 2-d block; centres it in place."""
    mean = rows.mean(axis=0)
    rows -= mean
    return len(rows), mean, rows.T @ rows


def _blocked_moments(block: Callable, R: int, size: int) -> tuple:
    """Moments of R rows drawn as ``block(b, min(size, R - b * size))`` on
    ``map_slices``, merged in block order: the same floats however many run."""

    def moments(b: int) -> tuple:
        return _moments(block(b, min(size, R - b * size)))

    return functools.reduce(merge_moments, map_slices(moments, range(-(-R // size))))


def verify_risk_transfer(
    problem: DecisionProblem,
    f: DensityModel,
    n: int,
    m: int,
    replications: int = 10_000,
    seed=0,
) -> CheckReport:
    """Risk gap across the chain versus the Hellinger-derived TV budget.

    The original rule runs on i.i.d. f samples; the transferred rule runs
    on multinomial counts whose cell indices go through the chain's own
    tent stage, ``transport_chain(n, m).stages[-1]``.  Their risks must
    agree up to the TV bound between f^n and f_hat^n plus 4 combined SEs.
    The rule is the empirical cell-1 frequency; it reads no sample order, so
    the transferred route may skip the midpoint shuffle and hand it each row
    in cell order.  The TV budget is tv_sandwich applied to the exact
    product-rule H^2, which is the computable surrogate
    (<= sqrt(n) H(f, f_hat_m)) for the true TV.

    Replications run in blocks of ``RISK_BLOCK`` on their own named
    substreams; block b returns its (size, 2) losses [target, source] to
    ``_blocked_moments``, as the y* check's blocks do.  The risks are the
    merged means, their SEs sqrt(diag(M2) / (R - 1) / R).
    """
    R = int(replications)
    if R < 2:
        raise UsageError("need at least 2 replications for a standard error")
    theta = theta_of(f, m)
    theta_true = problem.target(f)
    tent = transport_chain(n, m).stages[-1]
    cell_edge = 1.0 / m

    def rule(rows: np.ndarray) -> np.ndarray:
        return (rows <= cell_edge).mean(axis=1)

    def block(b: int, size: int) -> np.ndarray:
        xs = sample_iid(f, size * n, substream_seq(seed, "target", "block", b))
        target = problem.loss(theta_true, rule(xs.reshape(size, n)))
        del xs

        counts = substream(seed, "source", "block", b).multinomial(n, theta, size=size)
        cell_ids = np.arange(m, dtype=np.min_scalar_type(m - 1))
        cells = np.repeat(np.tile(cell_ids, size), counts.ravel()).reshape(size, n)
        ys = tent.sample(cells, substream_seq(seed, "tent", "block", b))
        # column-major, so each column's mean is a contiguous (pairwise) sum, not row by row
        losses = np.array([target, problem.loss(theta_true, rule(ys))], dtype=float).T
        if not (losses.min() >= 0.0 and losses.max() <= 1.0):
            raise DomainError("loss values fell outside [0, 1]")
        return losses

    _, (risk_t, risk_s), m2 = _blocked_moments(block, R, RISK_BLOCK)
    se_t, se_s = np.sqrt(np.diag(m2) / (R - 1) / R)

    h_sq = hellinger_sq(f, m)
    tv_budget = tv_sandwich(hellinger_sq_product([h_sq] * n))[1]
    gap = abs(risk_s - risk_t)
    allowance = tv_budget + MOMENT_BAND * math.hypot(se_t, se_s)
    return CheckReport(
        name=f"risk-transfer[{f.name},n={n},m={m},reps={R}]",
        passed=bool(gap <= allowance),
        statistic=float(gap),
        details={
            "risk_target": risk_t,
            "risk_target_se": se_t,
            "risk_source": risk_s,
            "risk_source_se": se_s,
            "tv_budget": tv_budget,
            "allowance": allowance,
            "theta1": theta_true,
        },
    )


@dataclass(frozen=True)
class SweepResult:
    """Rate-sweep rows (n, m, measured, bound) with a fitted log-log slope."""

    rows: tuple
    slope: float | None
    slope_ci: tuple | None
    exact_zero: bool

    def to_records(self) -> list[dict]:
        out = []
        for n, m, measured, bound in self.rows:
            out.append(
                {
                    "n": int(n),
                    "m": int(m),
                    "measured": measured,
                    "bound": bound,
                    "ratio": measured / bound if bound > 0 else 0.0,
                }
            )
        return out


def rate_sweep(f: DensityModel, gamma: float, n_grid) -> SweepResult:
    """sqrt(n) H(f, f_hat_m) along the tuning rule, next to the link bound.

    Deterministic (pure quadrature): it draws nothing.
    """
    ns = sorted(int(n) for n in n_grid)
    if len(ns) < 4:
        raise UsageError("rate sweeps need at least 4 grid points")
    rows = []
    cache: dict[int, float] = {}
    for n in ns:
        m = choose_m(n, gamma)
        if m not in cache:
            h_sq = hellinger_sq(f, m)
            # below quadrature noise the reconstruction is exact (uniform case)
            cache[m] = h_sq if h_sq > 1e-20 else 0.0
        measured = math.sqrt(n) * math.sqrt(cache[m])
        bound = bound_density_reconstruction(RateParams(n=n, m=m, gamma=gamma))
        rows.append((n, m, measured, bound))
    measured_col = np.asarray([r[2] for r in rows])
    keep = measured_col > 1e-9
    if keep.sum() < 3:
        return SweepResult(
            rows=tuple(rows), slope=None, slope_ci=None, exact_zero=bool(not keep.any())
        )
    x = np.log(np.asarray([r[0] for r in rows], dtype=float)[keep])
    if x.min() == x.max():
        raise UsageError("rate sweeps need at least two distinct sample sizes to fit")
    y = np.log(measured_col[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    return SweepResult(
        rows=tuple(rows),
        slope=float(slope),
        slope_ci=(float(slope - 1.96 * se), float(slope + 1.96 * se)),
        exact_zero=False,
    )


def _perturbed_theta(theta: np.ndarray, delta: float = 0.15) -> np.ndarray:
    """A deliberately wrong cell law for negative controls."""
    signs = np.where(np.arange(theta.size) % 2 == 0, 1.0, -1.0)
    wrong = theta * (1.0 + delta * signs)
    return wrong / wrong.sum()


def run_suite(
    f: DensityModel,
    seed,
    replications: int = 10_000,
    negative_control: bool = False,
) -> list[CheckReport]:
    """The default verification suite; deterministic given the master seed."""
    f.validate()
    _moment_replications(replications)  # before any check draws
    # the risk-transfer check, most of the work, runs first on this thread so
    # that its blocks fan out on the slice pool with no check in flight there
    # that could wait on this thread; the other checks follow on the pool, one
    # per slice, and the risk report goes after the positive checks
    risk = verify_risk_transfer(
        theta1_problem(16),
        f,
        n=1000,
        m=16,
        replications=replications,
        seed=substream_seq(seed, "risk"),
    )
    jobs: list[Callable[[], CheckReport]] = [
        functools.partial(
            verify_sufficiency, f, n=10_000, m=m, seed=substream_seq(seed, "sufficiency", m)
        )
        for m in (4, 8, 16)
    ]
    jobs += [
        functools.partial(
            verify_transport, f, n=10_000, m=m, seed=substream_seq(seed, "transport", m)
        )
        for m in (8, 16)
    ]
    jobs += [
        functools.partial(
            verify_ystar_moments,
            f,
            n=n,
            m=8,
            replications=replications,
            seed=substream_seq(seed, "ystar", n),
        )
        for n in (25, 100)
    ]
    risk_index = len(jobs)
    if negative_control:
        jobs.append(
            functools.partial(
                verify_sufficiency,
                f,
                n=10_000,
                m=8,
                seed=substream_seq(seed, "neg-sufficiency"),
                theta_override=_perturbed_theta(theta_of(f, 8)),
            )
        )
        jobs.append(
            functools.partial(
                verify_transport,
                f,
                n=10_000,
                m=8,
                seed=substream_seq(seed, "neg-transport"),
                skip_reconstruction=True,
            )
        )
    reports = list(map_slices(lambda job: job(), jobs))
    reports.insert(risk_index, risk)
    return reports
