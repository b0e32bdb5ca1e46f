"""Composite Simpson integration with dyadic panel refinement.

Integrands must be vectorized callables (ndarray in, ndarray out).  Both
entry points cut the range into cells and run one Simpson rule over all
cells at once, so the integrand is called once per refinement level.  The
panel count per cell doubles, at least once, until two successive levels
agree to ``tol``; the last refinement delta is the error estimate.  A level
that reaches ``PANEL_CAP`` panels in total without converging raises
NumericalError, so no unconverged value is returned.  Piecewise-smooth
integrands keep Simpson's order by passing their kink locations as
``knots``, which become cell edges.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .errors import NumericalError, UsageError

__all__ = ["DEFAULT_TOL", "PANEL_CAP", "integrate", "cell_integrals"]

DEFAULT_TOL = 1e-9
PANEL_CAP = 2**20


def _simpson(f: Callable, edges: np.ndarray, p: int) -> np.ndarray:
    """Composite Simpson with ``p`` equal panels on each cell, per cell."""
    offs = np.linspace(0.0, 1.0, 2 * p + 1)
    widths = np.diff(edges)
    x = edges[:-1, None] + widths[:, None] * offs[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    w = np.ones(2 * p + 1)
    w[1::2] = 4.0
    w[2:-1:2] = 2.0
    return (widths / (6.0 * p)) * (y * w).sum(axis=1)


def _refine(
    f: Callable, edges: np.ndarray, p: int, tol: float, delta: Callable
) -> tuple[np.ndarray, float]:
    """Double ``p`` until ``delta(cur, prev) < tol``; raise at the panel cap."""
    cells = len(edges) - 1
    prev = _simpson(f, edges, p)
    while True:
        p *= 2
        cur = _simpson(f, edges, p)
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
