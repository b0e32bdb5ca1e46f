"""Markov kernels as executable randomizations.

A kernel carries a sampling form (input point, seed -> output point) and,
where a closed form exists, a pushforward form (input law -> output law).
Kernels never see the unknown density: their randomness depends only on
the observed input and the seed, which is what makes them valid
randomizations between experiments.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, UsageError
from .experiments import _CHUNK, Trajectory, map_slices, stream_at
from .measures import DiscreteLaw, PiecewiseLinearDensity
from .rng import substream, substream_seq

__all__ = [
    "Space",
    "TentBasis",
    "MarkovKernel",
    "bin_counts",
    "counts_to_midpoint_sample",
    "binning_kernel",
    "midpoint_kernel",
    "reconstruction_kernel",
    "product_kernel",
    "compose",
    "transport_chain",
    "transport_batch",
    "brownian_bridge_paths",
    "ystar_values",
    "synthesize_ystar",
]

@dataclass(frozen=True)
class Space:
    """A sample space: ``coordinates`` i.i.d. points of one ``kind``.

    "unit-interval" points lie in [0, 1]; a "counts" point is one vector of m
    cell counts summing to n; "midpoint" points are cell indices 0..m-1, and
    index j stands for the midpoint x_{j+1}*.
    """

    kind: str
    coordinates: int
    m: int | None = None
    n: int | None = None

    def check(self, x) -> np.ndarray:
        """``x`` as an array whose last axis is one point of this space."""
        x = np.asarray(x)
        width = self.m if self.kind == "counts" else self.coordinates
        if x.ndim < 1 or x.shape[-1] != width:
            raise UsageError(f"expected {width} {self.kind} values, got shape {x.shape}")
        if self.kind == "counts" and np.any(x.sum(axis=-1) != self.n):
            raise UsageError(f"counts must sum to {self.n}")
        return x


@dataclass(frozen=True)
class TentBasis:
    """The piecewise-linear basis V_1..V_m on [0, 1].

    Each V_j is a probability density of height m peaking at the cell
    midpoint x_j* = (2j-1)/(2m); the two boundary functions are flat on
    [0, x_1*] and [x_m*, 1].  Pointwise the basis sums to m, and
    V_j(x_i*) = m when i = j and 0 otherwise.
    """

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise UsageError(f"tent basis needs m >= 2, got {self.m}")

    @property
    def midpoints(self) -> np.ndarray:
        return (2.0 * np.arange(1, self.m + 1) - 1.0) / (2.0 * self.m)

    def mixture(self, weights) -> PiecewiseLinearDensity:
        """The law sum_j w_j V_j; leading axes of ``weights`` index laws.

        On the knots 0, x_1*, ..., x_m*, 1 it takes the values m * w with the
        end weights repeated: V_j is m at x_j* only (V_1 also at 0, V_m at 1).
        """
        w = np.asarray(weights, dtype=float)
        knots = np.concatenate([[0.0], self.midpoints, [1.0]])
        at_knots = np.concatenate([[0], np.arange(self.m), [self.m - 1]])
        return PiecewiseLinearDensity(
            knots=knots, values=np.take(self.m * w, at_knots, axis=-1)
        )

    def cdf_matrix(self, t) -> np.ndarray:
        """Matrix of integrals int_0^t V_j, shape (m, len(t))."""
        return self.mixture(np.eye(self.m)).cdf(np.atleast_1d(t))

    def ppf_indexed(self, j_idx, u, out=None) -> np.ndarray:
        """Inverse CDF of V_{j_idx+1} at u, vectorized over both arrays.

        For u <= 1/2 the draw rises from the left neighbour's midpoint by
        sqrt(2u)/m, above it falls back from the right neighbour's by
        sqrt(2(1-u))/m; the flat outer halves of V_1 and V_m are linear in u.
        ``j_idx`` must hold integers: a float index raises ``DomainError``.
        The draws are written into ``out`` when it is given.
        """
        j0, u = np.broadcast_arrays(np.asarray(j_idx), np.asarray(u, dtype=float))
        if not np.issubdtype(j0.dtype, np.integer):
            raise DomainError(f"tent indices must be integers, got {j0.dtype}")
        if j0.size and (j0.min() < 0 or j0.max() >= self.m):
            raise UsageError("tent index out of range")
        m, xs = float(self.m), self.midpoints
        upper = u > 0.5
        out = np.sqrt(2.0 * np.minimum(u, 1.0 - u), out=np.empty(u.shape) if out is None else out)
        out /= m
        np.copysign(out, 0.5 - u, out=out)  # the step falls back above u = 1/2
        # start knots: entry j for u <= 1/2, entry m + j for u > 1/2
        starts = np.concatenate([xs[:1], xs[:-1], xs[1:], xs[-1:]])
        knot = self.m * upper
        knot += j0
        out += np.take(starts, knot)
        first = (j0 == 0) & ~upper
        out[first] = u[first] / m
        last = (j0 == self.m - 1) & upper
        out[last] = xs[-1] + (u[last] - 0.5) / m
        return out


@dataclass(frozen=True)
class MarkovKernel:
    """A randomization between two sample spaces.

    ``sample(x, seed)`` is deterministic given its seed and maps the last
    axis of ``x``; leading axes are replications.  ``pushforward_density``
    maps an input law to the output law where that is available in closed
    form, as a law object with its own ``pdf`` and ``cdf``.  Composites
    carry their flattened ``stages`` so that composition associates exactly
    on sampled outputs, not just in law.
    """

    source: Space
    target: Space
    sample: Callable
    pushforward_density: Callable | None = None
    label: str = ""
    stages: tuple = ()


def bin_counts(sample, m: int) -> np.ndarray:
    """Occupancy counts of the cells J_i = [(i-1)/m, i/m] along the last axis.

    Maps shape (..., n) to (..., m); each leading index is one replication.
    The points are binned ``_CHUNK`` at a time in C order.
    """
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    xs = np.asarray(sample, dtype=float)
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError("sample points must lie in [0, 1]")
    lead, n = xs.shape[:-1], xs.shape[-1]
    rows = math.prod(lead)
    flat = xs.reshape(-1)
    counts = np.zeros(rows * m, dtype=np.intp)
    for i in range(0, flat.size, _CHUNK):
        chunk = flat[i : i + _CHUNK]
        idx = np.minimum((chunk * m).astype(np.intp), m - 1)
        first = i // n * m  # row r counts into bins r*m .. r*m + m - 1
        if rows > 1:
            idx += np.arange(i, i + chunk.size) // n * m - first
        part = np.bincount(idx)  # covers only the rows this slice touches
        counts[first : first + part.size] += part
    return counts.reshape(lead + (m,))


def counts_to_midpoint_sample(counts, seed) -> np.ndarray:
    """Uniformly ordered multiset with counts[..., i] copies of cell index i.

    This is the sufficiency inverse of binning: applied to multinomial
    counts it reproduces n i.i.d. draws of the midpoint-supported law, each
    midpoint x_{i+1}* given by its cell index i.  Maps shape (..., m) to
    (..., n); every row must hold the same total n, and each row is shuffled
    on its own.  The indices have the smallest unsigned dtype and are
    permuted in place; the permutation depends only on the row length.
    """
    counts = np.asarray(counts)
    if counts.ndim < 1 or counts.size < 1:
        raise UsageError("counts must be a nonempty vector per replication")
    if np.any(counts < 0) or not np.issubdtype(counts.dtype, np.integer):
        raise UsageError("counts must be nonnegative integers")
    totals = counts.sum(axis=-1)
    if np.any(totals != totals.flat[0]):
        raise UsageError("every replication's counts must have the same total")
    m = counts.shape[-1]
    cells = np.arange(m, dtype=np.min_scalar_type(m - 1))
    idx = np.repeat(np.broadcast_to(cells, counts.shape).ravel(), counts.ravel())
    idx = idx.reshape(counts.shape[:-1] + (int(totals.flat[0]),))
    substream(seed, "perm").permuted(idx, axis=-1, out=idx)
    return idx


def binning_kernel(n: int, m: int) -> MarkovKernel:
    """Deterministic kernel realizing the binning statistic."""
    source = Space("unit-interval", n)
    return MarkovKernel(
        source=source,
        target=Space("counts", 1, m=m, n=n),
        sample=lambda xs, seed: bin_counts(source.check(xs), m),
        label=f"bin[{m}]",
    )


def midpoint_kernel(n: int, m: int) -> MarkovKernel:
    """Sufficiency inverse: counts -> uniformly ordered cell indices."""
    source = Space("counts", 1, m=m, n=n)
    return MarkovKernel(
        source=source,
        target=Space("midpoint", n, m=m),
        sample=lambda counts, seed: counts_to_midpoint_sample(source.check(counts), seed),
        label=f"midpoints[{m}]",
    )


def reconstruction_kernel(m: int) -> MarkovKernel:
    """Kernel sending cell index j (the midpoint x_{j+1}*) to a draw from V_{j+1}.

    Its input is an integer array of cell indices in [0, m); floats raise
    ``DomainError``.  Its pushforward maps the law with mass theta_j on
    index j - 1 to f_hat = sum_j theta_j V_j, a ``PiecewiseLinearDensity``
    with ``pdf`` and ``cdf``; ``approx.reconstruct`` and every check of f_hat
    use it.
    """
    basis = TentBasis(m)

    def sample(cells, seed):
        cells = np.asarray(cells)
        flat = cells.reshape(-1)
        out = np.empty(flat.size)
        stream = substream(seed, "tent").bit_generator.state
        # slice by slice: the same uniforms as one uniform(size=cells.shape) call
        def draw(i: int) -> None:
            chunk = flat[i : i + _CHUNK]
            u = stream_at(stream, i).uniform(size=chunk.size)
            basis.ppf_indexed(chunk, u, out=out[i : i + chunk.size])

        for _ in map_slices(draw, range(0, flat.size, _CHUNK)):
            pass
        return out.reshape(cells.shape)

    def pushforward(law: DiscreteLaw) -> PiecewiseLinearDensity:
        cells = law.points
        if np.any(cells != np.floor(cells)) or cells.min() < 0 or cells.max() >= m:
            raise DomainError(f"atoms must be cell indices in [0, {m})")
        return basis.mixture(np.bincount(cells.astype(int), law.masses, minlength=m))

    return MarkovKernel(
        source=Space("midpoint", 1, m=m),
        target=Space("unit-interval", 1),
        sample=sample,
        pushforward_density=pushforward,
        label=f"tent[{m}]",
    )


def product_kernel(kernel: MarkovKernel, n: int) -> MarkovKernel:
    """The i.i.d. power kernel^n: n coordinates with independent randomness.

    ``kernel`` must act elementwise on arrays, so the last axis of n
    coordinates is sampled in one call from a single derived stream.  For
    n > 1 it carries no pushforward.
    """
    if n < 1:
        raise UsageError("product of zero kernels")
    if n == 1:
        return kernel
    source = replace(kernel.source, coordinates=n * kernel.source.coordinates)

    def sample(xs, seed):
        return kernel.sample(source.check(xs), substream_seq(seed, "coords"))

    return MarkovKernel(
        source=source,
        target=replace(kernel.target, coordinates=n * kernel.target.coordinates),
        sample=sample,
        label=f"product[{n}]",
    )


def compose(k1: MarkovKernel, k2: MarkovKernel) -> MarkovKernel:
    """k2 after k1, with an independent seed per flattened stage; no pushforward.

    The composite's ``sample(x, seed, start=k)`` enters at stage k on the
    same seed path, so a caller holding stage k's input gets exactly the
    values the full composite would produce from that point on.
    """
    if k1.target != k2.source:
        raise UsageError(
            f"cannot compose: target {k1.target} != source {k2.source}"
        )
    stages = (k1.stages or (k1,)) + (k2.stages or (k2,))

    def sample(x, seed, start=0):
        for i in range(start, len(stages)):
            x = stages[i].sample(x, substream_seq(seed, "stage", i))
        return x

    return MarkovKernel(
        source=k1.source,
        target=k2.target,
        sample=sample,
        label=";".join(s.label or "k" for s in stages),
        stages=stages,
    )


def transport_chain(n: int, m: int) -> MarkovKernel:
    """The full randomization i.i.d. f -> counts -> midpoints -> i.i.d. f_hat.

    Stage 0 bins, stage 1 draws the uniformly ordered midpoint sample as
    cell indices and stage 2 replaces each index by a tent draw; the
    output's order is the midpoint shuffle's, not the input's.
    """
    return compose(
        binning_kernel(n, m),
        compose(midpoint_kernel(n, m), product_kernel(reconstruction_kernel(m), n)),
    )


def transport_batch(samples, m: int, seed) -> np.ndarray:
    """``transport_chain`` sized to the last axis of ``samples``, sampled once."""
    xs = np.asarray(samples, dtype=float)
    return transport_chain(xs.shape[-1], m).sample(xs, seed)


def brownian_bridge_paths(u, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact standard-Brownian-bridge samples at nondecreasing times.

    ``u`` has shape (bridges, points) with entries in [0, 1], nondecreasing
    along each row.  Returns shape (size, bridges, points).  Doob's (1949)
    construction B(u) = W(u) - u W(1): W at the times is one cumulative sum of
    N(0, u_k - u_{k-1}) steps and W(1) one step more, so there is no path
    refinement error, and B is exactly 0 where u is 0 or 1.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.size and not (u.min() >= -1e-12 and u.max() <= 1.0 + 1e-12):
        raise DomainError("bridge times must be finite and lie in [0, 1]")
    if np.any(np.diff(u, axis=1) < -1e-12):
        raise UsageError("bridge times must be nondecreasing along rows")
    u = np.clip(u, 0.0, 1.0)
    sd = np.diff(u, axis=1, prepend=0.0, append=1.0)  # the step variances, then sds
    np.sqrt(np.clip(sd, 0.0, None, out=sd), out=sd)
    w = rng.standard_normal((size,) + u.shape)
    w *= sd[:, :-1]
    np.cumsum(w, axis=-1, out=w)
    w1 = sd[:, -1] * rng.standard_normal((size, len(u)))  # then W(1), drawn last
    w1 += w[..., -1] if u.shape[1] else 0.0
    for i, row in enumerate(u):  # one bridge at a time: no path-sized temporary
        w[:, i] -= row * w1[:, i, None]
    return w


def ystar_values(ybar, U, n: int, rng: np.random.Generator) -> np.ndarray:
    """y*_t = sum_i Ybar_i U_i(t) + (2 sqrt(nm))^{-1} sum_i B^i(U_i(t)).

    ``U`` holds the tent CDFs U_i(t) = int_0^t V_i at the observation
    times, shape (m, T); ``ybar`` has shape (..., m), one row of interval
    increments per replication, and each row gets its own m independent
    standard Brownian bridges.  Returns shape (..., T).
    """
    ybar = np.asarray(ybar, dtype=float)
    m = ybar.shape[-1]
    lead = ybar.shape[:-1]
    paths = brownian_bridge_paths(U, rng, math.prod(lead))  # (reps, m, T)
    bridge_sum = paths.sum(axis=1).reshape(lead + (U.shape[-1],))
    return ybar @ U + bridge_sum * (1.0 / (2.0 * math.sqrt(n * m)))


def synthesize_ystar(increments, n: int, seed, grid_resolution: int) -> Trajectory:
    """Reassemble a white-noise-style trajectory from interval increments.

    ``ystar_values`` on the uniform grid of ``grid_resolution`` steps, with
    the bridges drawn from ``substream(seed, "ystar")``.
    """
    ybar = np.asarray(increments, dtype=float).ravel()
    m = ybar.size
    if m < 2:
        raise UsageError(f"need at least 2 increments, got {m}")
    if grid_resolution < m:
        raise UsageError("grid_resolution must be >= m")
    if n < 1:
        raise UsageError("n must be >= 1")
    t = np.arange(grid_resolution + 1, dtype=float) / grid_resolution
    U = TentBasis(m).cdf_matrix(t)  # (m, T)
    values = ystar_values(ybar, U, n, substream(seed, "ystar"))
    values = values - values[0]  # pin y*_0 = 0 exactly against float fuzz
    return Trajectory(times=t, values=values)
