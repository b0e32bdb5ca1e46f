"""Samplers and exact parameter maps for the experiment chain.

The chain runs from n i.i.d. draws of a density f on [0, 1], through bin
probabilities theta_i = int_{J_i} f over the cells J_i = [(i-1)/m, i/m],
to a discretized white-noise trajectory dy = sqrt(f) dt + dW / (2 sqrt n).
All samplers are deterministic functions of (parameters, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .measures import DensityModel
from .quadrature import cell_integrals
from .rng import substream

__all__ = [
    "ThetaVector",
    "Trajectory",
    "default_grid_resolution",
    "theta_of",
    "sqrt_cell_means",
    "sample_iid",
    "sample_white_noise",
    "increments",
    "format_samples",
    "save_samples",
    "load_samples",
]


def default_grid_resolution(m: int) -> int:
    """64 grid cells per bin keeps drift quadrature error far below the noise."""
    return 64 * m


@dataclass(frozen=True)
class ThetaVector:
    """Cell probabilities theta_i = int_{J_i} f for one density and bin count."""

    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", th)
        if th.ndim != 1 or th.size < 1:
            raise DomainError("theta must be a 1-d probability vector")
        if th.min() < 0.0:
            raise DomainError(f"negative cell probability {th.min():g}")
        if abs(th.sum() - 1.0) > 1e-10:
            raise DomainError(f"theta sums to {th.sum():.15g}, not 1")

    @property
    def m(self) -> int:
        return int(self.theta.size)


@dataclass(frozen=True)
class Trajectory:
    """A process observed on a uniform time grid starting at (0, 0)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)
        if t.shape != y.shape or t.ndim != 1 or t.size < 2:
            raise UsageError("times and values must be matching 1-d arrays")
        if t[0] != 0.0:
            raise UsageError("trajectories start at time 0")
        steps = np.diff(t)
        if steps.min() <= 0 or np.ptp(steps) > 1e-12 * steps.max():
            raise UsageError("time grid must be uniform and increasing")

    @property
    def resolution(self) -> int:
        return self.times.size - 1

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "value"])
            for t, v in zip(self.times, self.values):
                writer.writerow([f"{t:.12g}", f"{v:.12g}"])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["time", "value"]:
            raise UsageError(f"{path}: expected a 'time,value' header")
        data = np.asarray(rows[1:], dtype=float)
        return cls(times=data[:, 0], values=data[:, 1])


def theta_of(f: DensityModel, m: int) -> ThetaVector:
    """Cell probabilities by quadrature over J_i = [(i-1)/m, i/m]."""
    if m < 2:
        raise UsageError(f"m must be >= 2, got {m}")
    edges = np.arange(m + 1, dtype=float) / m
    try:
        theta = cell_integrals(f.pdf, edges, tol=1e-13)
    except NumericalError as exc:
        raise NumericalError(f"theta quadrature failed for {f.name}: {exc}") from exc
    tv = ThetaVector(theta=theta)
    slack = 1e-9
    if theta.min() < f.eps / m - slack or theta.max() > f.M / m + slack:
        raise DomainError(
            f"{f.name}: cell mass outside [eps/m, M/m] "
            f"(range [{theta.min():g}, {theta.max():g}], m={m})"
        )
    return tv


def sqrt_cell_means(f: DensityModel, m: int) -> np.ndarray:
    """The vector of int_{J_i} sqrt(f), the white-noise increment means."""
    if m < 2:
        raise UsageError(f"m must be >= 2, got {m}")
    edges = np.arange(m + 1, dtype=float) / m
    return cell_integrals(lambda x: np.sqrt(f.pdf(x)), edges, tol=1e-13)


def sample_iid(f: DensityModel, n: int, seed) -> np.ndarray:
    """n independent draws from f by rejection under the envelope M * U[0,1]."""
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    rng = substream(seed, "iid")
    out = np.empty(n, dtype=float)
    filled = 0
    guard = 0
    while filled < n:
        batch = max(int(1.05 * f.M * (n - filled)) + 16, 64)
        x = rng.uniform(size=batch)
        u = rng.uniform(size=batch)
        fx = np.asarray(f.pdf(x), dtype=float)
        if fx.max() > f.M * (1.0 + 1e-9):
            raise DomainError(
                f"{f.name}: density value {fx.max():g} exceeds envelope M={f.M}"
            )
        accepted = x[u * f.M <= fx]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
        guard += 1
        if guard > 10_000:
            raise DomainError("rejection sampling stalled; check the class bound M")
    return out


def sample_white_noise(
    f: DensityModel, n: int, grid_resolution: int, seed
) -> Trajectory:
    """Discretized observation of dy = sqrt(f) dt + dW / (2 sqrt n).

    Exact on its own grid: each increment is the drift integral over the
    cell plus an independent N(0, dt / (4n)) noise term.
    """
    if grid_resolution < 1:
        raise UsageError("grid_resolution must be >= 1")
    if n < 1:
        raise UsageError("n must be >= 1")
    rng = substream(seed, "white-noise")
    t = np.arange(grid_resolution + 1, dtype=float) / grid_resolution
    drift = cell_integrals(lambda x: np.sqrt(f.pdf(x)), t, tol=1e-11)
    dt = 1.0 / grid_resolution
    noise = rng.normal(0.0, math.sqrt(dt) / (2.0 * math.sqrt(n)), size=grid_resolution)
    values = np.concatenate([[0.0], np.cumsum(drift + noise)])
    return Trajectory(times=t, values=values)


def increments(traj: Trajectory, m: int) -> np.ndarray:
    """Process increments over the cells J_i; the grid must divide evenly."""
    res = traj.resolution
    if m < 1 or res % m != 0:
        raise UsageError(f"m={m} does not divide the grid resolution {res}")
    step = res // m
    marks = traj.values[::step]
    return np.diff(marks)


def format_samples(values) -> str:
    """The sample-file format: one value per line, 12 significant digits."""
    values = np.asarray(values, dtype=float).ravel()
    # one %-pass over Python floats: faster and leaner than a per-value f-string
    return ("%.12g\n" * values.size) % tuple(values.tolist())


def save_samples(path, values) -> None:
    """Write ``values`` to ``path`` in the sample-file format."""
    with open(path, "w") as fh:
        fh.write(format_samples(values))


def load_samples(path) -> np.ndarray:
    with open(path) as fh:
        body = [line.strip() for line in fh if line.strip()]
    try:
        values = np.asarray(body, dtype=float)
    except ValueError as exc:
        raise UsageError(f"{path}: malformed sample file: {exc}") from None
    if not np.isfinite(values).all():
        raise UsageError(f"{path}: sample values must be finite")
    return values
