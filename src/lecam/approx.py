"""Errors of the piecewise-linear reconstruction of a density.

The reconstruction f_hat_m = sum_j theta_j V_j interpolates the scaled
cell probabilities m * theta_j at the cell midpoints and is flat on the
two boundary half-cells.  It is the law that the tent reconstruction
kernel pushes the midpoint law forward to; this module measures its L2
and Hellinger errors and the Taylor remainders that drive their rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .experiments import theta_of
from .kernels import TentBasis, reconstruction_kernel
from .measures import (
    DensityModel,
    DiscreteLaw,
    PiecewiseLinearDensity,
    hellinger_sq_quadrature,
)
from .quadrature import integrate

__all__ = [
    "ErrorBreakdown",
    "reconstruct",
    "l2_error_sq",
    "hellinger_sq",
    "hellinger_bound",
    "remainder_sup",
]

REMAINDER_GRID = 1024  # evaluation points per cell for remainder suprema


def reconstruct(f: DensityModel, m: int) -> PiecewiseLinearDensity:
    """f_hat_m: the tent kernel's pushforward of the midpoint law with masses theta.

    The midpoint law puts mass theta_j on cell index j - 1, its label for x_j*.
    """
    midpoint_law = DiscreteLaw(tuple(enumerate(theta_of(f, m))))
    return reconstruction_kernel(m).pushforward_density(midpoint_law)


def _error_knots(m: int) -> np.ndarray:
    """Cell edges and midpoints, so quadrature panels align with kinks."""
    edges = np.arange(m + 1, dtype=float) / m
    mids = TentBasis(m).midpoints
    return np.union1d(edges, mids)


def l2_error_sq(
    f: DensityModel, m: int, fhat: PiecewiseLinearDensity | None = None
) -> float:
    """int (f - f_hat_m)^2 with knot-aligned panels."""
    fhat = reconstruct(f, m) if fhat is None else fhat

    def integrand(x):
        return (f.pdf(x) - fhat.pdf(x)) ** 2

    value, _ = integrate(integrand, 0.0, 1.0, knots=_error_knots(m), tol=1e-12)
    return max(value, 0.0)


def hellinger_sq(
    f: DensityModel, m: int, fhat: PiecewiseLinearDensity | None = None
) -> float:
    """H^2(f, f_hat_m) with knot-aligned panels."""
    fhat = reconstruct(f, m) if fhat is None else fhat
    return hellinger_sq_quadrature(f, fhat, knots=_error_knots(m))[0]


@dataclass(frozen=True)
class ErrorBreakdown:
    """Measured reconstruction errors and the bound connecting them."""

    l2_sq: float
    hellinger_sq: float
    hellinger_sq_bound: float  # (1 / 4 eps) * l2_sq

    def __post_init__(self):
        if self.hellinger_sq > self.hellinger_sq_bound + 1e-9:
            raise NumericalError(
                f"H^2 {self.hellinger_sq:g} exceeds its L2 bound "
                f"{self.hellinger_sq_bound:g}"
            )


def hellinger_bound(f: DensityModel, m: int) -> ErrorBreakdown:
    """Direct H^2(f, f_hat_m) next to its (1/4 eps) L2^2 upper bound."""
    fhat = reconstruct(f, m)
    l2 = l2_error_sq(f, m, fhat=fhat)
    return ErrorBreakdown(
        l2_sq=l2,
        hellinger_sq=hellinger_sq(f, m, fhat=fhat),
        hellinger_sq_bound=l2 / (4.0 * f.eps),
    )


def remainder_sup(f: DensityModel, m: int, i: int) -> float:
    """Grid supremum over J_i of the first-order Taylor remainder at x_i*.

    For class members the interior cells (2 <= i <= m-1) obey
    sup |R_i| <= K m^{-1-gamma}.
    """
    if not 1 <= i <= m:
        raise UsageError(f"cell index {i} outside 1..{m}")
    lo, hi = (i - 1) / m, i / m
    x = np.linspace(lo, hi, REMAINDER_GRID)
    x_star = (2 * i - 1) / (2.0 * m)
    f0 = float(np.asarray(f.pdf(np.asarray([x_star])))[0])
    d0 = float(np.asarray(f.deriv(np.asarray([x_star])))[0])
    rem = np.abs(f.pdf(x) - f0 - d0 * (x - x_star))
    return float(rem.max())
