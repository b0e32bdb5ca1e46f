"""Composite Simpson integration with dyadic panel refinement.

Integrands must be vectorized elementwise callables (ndarray in, ndarray out).
Both entry points cut the range into cells and run one Simpson rule over all
cells at once, so the integrand is called once per refinement level, on that
level's new points only.  The panel count per cell doubles, at least once,
until two successive levels agree to ``tol``; the last refinement delta is the
error estimate.  A level that reaches ``PANEL_CAP`` panels in total without
converging raises NumericalError, so no unconverged value is returned, and so
does a first refinement above 8 * ``PANEL_CAP`` panels, before any level is
built.  Piecewise-smooth integrands keep Simpson's order by passing their kink
locations as ``knots``, which become cell edges.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable

import numpy as np

from .errors import NumericalError, UsageError

__all__ = ["DEFAULT_TOL", "PANEL_CAP", "integrate", "cell_integrals"]

DEFAULT_TOL = 1e-9
PANEL_CAP = 2**20


def _rule(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only point offsets in [0, 1] and Simpson weights for ``p`` panels."""
    offs = np.linspace(0.0, 1.0, 2 * p + 1)
    w = np.ones(2 * p + 1)
    w[1::2] = 4.0
    w[2:-1:2] = 2.0
    offs.flags.writeable = w.flags.writeable = False
    return offs, w


_cached_rule = functools.lru_cache(maxsize=64)(_rule)  # for rules up to 4096 panels


def _simpson(f: Callable, edges: np.ndarray, p: int, coarse, widths: np.ndarray):
    """Composite Simpson with ``p`` equal panels on each cell: per-cell values, samples.

    Given ``coarse``, the samples at p / 2 panels, only the odd-indexed points
    are evaluated: the even ones are the coarse points bit for bit, since
    linspace's step halves exactly.  ``widths`` is ``np.diff(edges)``.
    """
    offs, w = (_cached_rule if p <= 4096 else _rule)(p)  # larger levels dwarf the rule
    x = edges[:-1, None] + widths[:, None] * (offs if coarse is None else offs[1::2])
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if coarse is not None:
        y, fine = np.empty((len(widths), 2 * p + 1)), y
        y[:, ::2], y[:, 1::2] = coarse, fine
    return (widths / (6.0 * p)) * (y * w).sum(axis=1), y


def _refine(
    f: Callable, edges: np.ndarray, p: int, tol: float, delta: Callable
) -> tuple[np.ndarray, float]:
    """Double ``p`` until ``delta(cur, prev) < tol``; raise at the panel cap."""
    cells = len(edges) - 1
    # every call builds level 2p, and later ones stay below 2 * PANEL_CAP
    if 2 * p * cells > 8 * PANEL_CAP:
        raise NumericalError(
            f"quadrature would need {2 * p} panels per cell over {cells} cells, "
            f"above {8 * PANEL_CAP}"
        )
    widths = np.diff(edges)
    prev, y = _simpson(f, edges, p, None, widths)
    while True:
        p *= 2
        cur, y = _simpson(f, edges, p, y, widths)
        change = delta(cur, prev)
        if change < tol:
            return cur, change
        if p * cells >= PANEL_CAP:
            raise NumericalError(
                f"quadrature did not reach tol={tol:g}: last delta {change:g} "
                f"with {p} panels per cell over {cells} cells"
            )
        prev = cur


def integrate(
    f: Callable,
    a: float,
    b: float,
    *,
    knots: Iterable[float] | None = None,
    tol: float = DEFAULT_TOL,
    panels: int = 4,
) -> tuple[float, float]:
    """Integrate ``f`` over [a, b], with the ``knots`` inside (a, b) as cell edges.

    Starts from ``panels`` panels per cell and returns ``(value, abs_error)``,
    where ``abs_error`` is the change of the total between the last two
    refinement levels.
    """
    if b < a:
        raise UsageError(f"inverted integration bounds [{a}, {b}]")
    if b == a:
        return 0.0, 0.0
    if panels < 1:
        raise UsageError("panels must be >= 1")
    pts = [a, b]
    if knots is not None:
        pts.extend(t for t in np.asarray(knots, dtype=float).ravel() if a < t < b)
    edges = np.unique(np.asarray(pts, dtype=float))
    values, err = _refine(
        f, edges, int(panels), tol, lambda cur, prev: abs(cur.sum() - prev.sum())
    )
    return float(values.sum()), float(err)


def cell_integrals(f: Callable, edges: np.ndarray, *, tol: float = 1e-10) -> np.ndarray:
    """Simpson integrals of ``f`` over each cell [edges[k], edges[k+1]].

    Starts from 4 panels per cell and refines until the per-cell deltas,
    summed over cells, fall below ``tol``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise UsageError("edges must be a 1-d array with at least two entries")
    values, _ = _refine(f, edges, 4, tol, lambda cur, prev: np.abs(cur - prev).sum())
    return values
