"""Samplers and exact parameter maps for the experiment chain.

The chain runs from n i.i.d. draws of a density f on [0, 1], through bin
probabilities theta_i = int_{J_i} f over the cells J_i = [(i-1)/m, i/m],
to a discretized white-noise trajectory dy = sqrt(f) dt + dW / (2 sqrt n).
All samplers are deterministic functions of (parameters, seed).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .measures import DensityModel
from .quadrature import cell_integrals
from .rng import substream

__all__ = [
    "Trajectory",
    "theta_of",
    "sqrt_cell_means",
    "sample_iid",
    "sample_white_noise",
    "increments",
    "format_float",
    "format_samples",
    "load_samples",
]


# values per slice of every per-point pass (sampler, transport kernels, writer):
# working memory stays O(_CHUNK) however many points there are
_CHUNK = 1 << 16

_local = threading.local()  # per thread: the reused ``gen``

# at most two workers, the only size measured (2 vCPUs), so the slices in flight
# do not grow with the machine; its threads start on the first fan-out
_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_pool = ThreadPoolExecutor(min(2, _cpus or 1), "lecam-slice")


def map_slices(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item of a sequence, yielded in sequence order.

    The items are slice starts of a per-point pass, block numbers of
    ``verify``'s Monte Carlo checks or the suite's checks.  Runs on
    ``_pool``, at most one item more than it has workers submitted and not
    yet yielded.  It runs inline where a pool gains nothing or could wait on
    itself: for two items or fewer, on a one-worker pool, and off the main
    thread (a pool worker's call).  An exception comes out at its item's
    turn, and a stopped iterator waits for its running items.
    """
    off_main = threading.current_thread() is not threading.main_thread()
    if len(items) <= 2 or _pool._max_workers < 2 or off_main:
        yield from map(fn, items)
        return
    ahead = _pool._max_workers + 1
    futures = {k: _pool.submit(fn, items[k]) for k in range(min(ahead, len(items)))}
    try:
        for k in range(len(items)):
            result = futures.pop(k).result()
            if k + ahead < len(items):
                futures[k + ahead] = _pool.submit(fn, items[k + ahead])
            yield result
    finally:
        wait([fut for fut in futures.values() if not fut.cancel()])


def stream_at(state: dict, offset: int) -> np.random.Generator:
    """This thread's reused generator, placed ``offset`` doubles into the stream
    whose ``bit_generator.state`` before its first draw is ``state``."""
    if not hasattr(_local, "gen"):
        _local.gen = np.random.Generator(np.random.PCG64(0))
    _local.gen.bit_generator.state = state
    _local.gen.bit_generator.advance(offset)
    return _local.gen


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
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise DomainError("trajectory times and values must be finite")
        if t[0] != 0.0:
            raise UsageError("trajectories start at time 0")
        steps = np.diff(t)
        if steps.min() <= 0 or np.ptp(steps) > 1e-12 * steps.max():
            raise UsageError("time grid must be uniform and increasing")

    @property
    def resolution(self) -> int:
        return self.times.size - 1


def theta_of(f: DensityModel, m: int) -> np.ndarray:
    """Cell probabilities by quadrature over J_i = [(i-1)/m, i/m].

    They must sum to 1 within 1e-10 and lie in [eps/m, M/m] (never below 0),
    else ``DomainError``.
    """
    if m < 2:
        raise UsageError(f"m must be >= 2, got {m}")
    edges = np.arange(m + 1, dtype=float) / m
    try:
        theta = cell_integrals(f.pdf, edges, tol=1e-13)
    except NumericalError as exc:
        raise NumericalError(f"theta quadrature failed for {f.name}: {exc}") from exc
    if not abs(theta.sum() - 1.0) <= 1e-10:
        raise DomainError(f"{f.name}: theta sums to {theta.sum():.15g}, not 1")
    slack = 1e-9
    if theta.min() < max(f.eps / m - slack, 0.0) or theta.max() > f.M / m + slack:
        raise DomainError(
            f"{f.name}: cell mass outside [eps/m, M/m] "
            f"(range [{theta.min():g}, {theta.max():g}], m={m})"
        )
    return theta


def sqrt_cell_means(f: DensityModel, m: int) -> np.ndarray:
    """The vector of int_{J_i} sqrt(f), the white-noise increment means."""
    if m < 2:
        raise UsageError(f"m must be >= 2, got {m}")
    edges = np.arange(m + 1, dtype=float) / m
    return cell_integrals(lambda x: np.sqrt(f.pdf(x)), edges, tol=1e-13)


def sample_iid(f: DensityModel, n: int, seed) -> np.ndarray:
    """n independent draws from f by rejection under the envelope M * U[0,1].

    Each batch's candidates are tested ``_CHUNK`` at a time on ``map_slices``;
    every candidate is checked against the envelope, even past the n-th acceptance.
    """
    if n < 0:
        raise UsageError(f"n must be >= 0, got {n}")
    # the first batch is the largest; a bound that cannot size it is a domain error
    if not 1.05 * f.M * n < 2.0**63:
        raise DomainError(
            f"{f.name}: class bound M={f.M:g} is too large to size a rejection batch "
            f"for n={n}"
        )
    stream = substream(seed, "iid").bit_generator.state
    out = np.empty(n, dtype=float)
    filled = 0
    drawn = 0  # a batch of b takes x from the next b doubles, then u from the b after
    guard = 0
    while filled < n:
        batch = max(int(1.05 * f.M * (n - filled)) + 16, 64)
        def accepted(i: int) -> np.ndarray:
            xs = stream_at(stream, drawn + i).random(min(_CHUNK, batch - i))
            u = stream_at(stream, drawn + batch + i).random(xs.size)
            fx = np.asarray(f.pdf(xs), dtype=float)
            if fx.max() > f.M * (1.0 + 1e-9):
                raise DomainError(
                    f"{f.name}: density value {fx.max():g} exceeds envelope M={f.M}"
                )
            u *= f.M
            return xs[u <= fx]

        for kept in map_slices(accepted, range(0, batch, _CHUNK)):
            take = min(kept.size, n - filled)
            out[filled : filled + take] = kept[:take]
            filled += take
        drawn += 2 * batch
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


_FLOAT_FORMAT = "%.12g"  # every float the package prints: 12 significant digits

_SCALE = np.array([1e12, 1e13, 1e14, 1e15])  # 10^(12+z), exact doubles


def format_float(x) -> str:
    """One float in the package's output format, ``%.12g``."""
    return _FLOAT_FORMAT % x


@functools.cache
def _record_tables():
    """The pieces of a fast-path record, built on first use.

    Returns the "0." + z zeros prefixes (z = 0..3) as NUL-padded 8-byte
    words, the 4-digit ASCII groups of 0..9999 as 4-byte words followed by
    the same groups with trailing zeros turned to NUL, and the newline word.
    """
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    text = (digits + ord("0")).astype(np.uint8)
    kept = np.flip(np.cumsum(np.flip(digits, 1), 1), 1) > 0  # a nonzero digit at or after
    groups = np.concatenate([text, np.where(kept, text, 0).astype(np.uint8)])
    prefixes = b"".join(b"0." + b"0" * z + b"\0" * (6 - z) for z in range(4))
    newline = np.frombuffer(b"\n\0\0\0", dtype=np.uint32)[0]
    return np.frombuffer(prefixes, dtype=np.uint64), groups.view(np.uint32).ravel(), newline


def _format_chunk(x: np.ndarray) -> str:
    """``%.12g`` lines for one chunk, byte-identical to a ``%`` pass.

    Values in [1e-4, 1) print as "0." + z zeros + the 12-digit mantissa
    without its trailing zeros.  z counts the decades below 0.1 and is
    exact: each bound's double lies above the true power of ten by less
    than one ulp.  The mantissa that ``%`` prints is the exact product
    x 10^(12+z) rounded to an integer.  Its double p (10^(12+z) is exact)
    is that product correctly rounded, and every half-integer below 2^40 is
    a double, so p lies on the same side of each k + 1/2 as the product or
    on it: rint(p) is the mantissa unless p is a half-integer.  A mantissa
    that carries to 10^12 leaves the decade.  Each remaining value fills a
    24-byte record (prefix, three 4-digit groups, newline, NUL padding).
    Every other value, ties included, is formatted by ``%`` into its own
    record, NUL-padded (``%-23.12g`` spaces; ``%.12g`` has none and at most 19
    characters).  Deleting the NULs joins the records into lines.
    """
    prefixes, groups, newline = _record_tables()
    in_range = (x >= 1e-4) & (x < 1.0)
    p = np.where(in_range, x, 0.5)  # keeps the arithmetic below finite
    z = (p < 0.1).astype(np.uint8) + (p < 0.01) + (p < 0.001)
    p *= _SCALE[z]
    rounded = np.rint(p)
    p -= rounded
    fast = in_range & (np.abs(p, out=p) != 0.5) & (rounded < 1e12)
    slow = np.flatnonzero(~fast)
    rounded[slow] = 1e11  # an in-range table index
    high, low = np.divmod(rounded.astype(np.int64), 10**8)
    del p, rounded, in_range, fast
    records = np.empty((x.size, 6), dtype=np.uint32)
    records.view(np.uint64)[:, 0] = prefixes[z]
    # a group ends the line, and drops its trailing zeros, when all after it are 0
    records[:, 2] = groups[high + 10_000 * (low == 0)]
    mid, last = np.divmod(low, 10**4)
    records[:, 3] = groups[mid + 10_000 * (last == 0)]
    records[:, 4] = groups[last + 10_000]
    records[:, 5] = newline
    del z, high, low, mid, last
    if slow.size:
        text = ("%-23.12g\n" * slow.size % tuple(x[slow].tolist())).encode().replace(b" ", b"\0")
        records.view(np.uint8).reshape(-1, 24)[slow] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    text = records.view(np.uint8).ravel()
    text = text[text != 0]
    del records
    return text.tobytes().decode("ascii")


def format_samples(values) -> Iterator[str]:
    """The sample-file format: one ``%.12g`` value per line, in chunks.

    Yields the text of ``_CHUNK`` values at a time, made by ``_format_chunk``
    on ``map_slices`` only when asked for; joined, the chunks are
    byte-identical to ``("%.12g\\n" * n) % tuple(values)`` for every input.
    """
    values = np.asarray(values, dtype=float).ravel()
    return map_slices(
        lambda i: _format_chunk(values[i : i + _CHUNK]), range(0, values.size, _CHUNK)
    )


def load_samples(path) -> np.ndarray:
    try:
        with open(path) as fh:
            body = [line.strip() for line in fh if line.strip()]
        values = np.asarray(body, dtype=float)
    except ValueError as exc:  # UnicodeDecodeError included: text that is not UTF-8
        raise UsageError(f"{path}: malformed sample file: {exc}") from None
    if not np.isfinite(values).all():
        raise UsageError(f"{path}: sample values must be finite")
    return values
