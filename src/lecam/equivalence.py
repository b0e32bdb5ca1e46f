"""Distance-bound calculators for the experiment chain.

Each link of the chain gets a rate formula with unit constants (the
multinomial-to-Gaussian links carry an injectable constant), plus the
bin-count tuning rule m = n^{1/(2+gamma)} and the end-to-end total.
Absolute constants are not computable from theory, so consumers check
slopes and ratios, never magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "RateParams",
    "bound_density_reconstruction",
    "bound_carter_multinomial",
    "bound_carter_independent",
    "choose_m",
    "total_bound_curve",
    "minimize_total",
]


@dataclass(frozen=True)
class RateParams:
    """Sample size, bin count, smoothness, and the multinomial constant."""

    n: int
    m: int
    gamma: float
    C_R: float = 1.0

    def __post_init__(self):
        if not self.n >= 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not self.m >= 2:
            raise DomainError(f"m must be >= 2, got {self.m}")
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.C_R < math.inf:
            raise DomainError(f"C_R must be positive and finite, got {self.C_R}")


_MINIMIZE_WINDOW = 64  # minimize_total scans at most this many bin counts


def _rate_mn(n, m, gamma):
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    return np.sqrt(n) * (m**-1.5 + m ** -(1.0 + gamma))


def _carter_mn(n, m, C_R):
    m = np.asarray(m, dtype=float)
    return C_R * m * np.log(m) / math.sqrt(n)


def _carter_independent_mn(n, m, C_R):
    return C_R * np.asarray(m, dtype=float) / math.sqrt(n)


def bound_density_reconstruction(p: RateParams) -> float:
    """sqrt(n) (m^{-3/2} + m^{-1-gamma}), the reconstruction-link rate."""
    return float(_rate_mn(p.n, p.m, p.gamma))


def bound_carter_multinomial(p: RateParams) -> float:
    """C_R m ln(m) / sqrt(n): multinomial vs. matched multivariate normal."""
    return float(_carter_mn(p.n, p.m, p.C_R))


def bound_carter_independent(p: RateParams) -> float:
    """C_R m / sqrt(n): correlated normal vs. independent-coordinate normal."""
    return float(_carter_independent_mn(p.n, p.m, p.C_R))


def choose_m(n: int, gamma: float) -> int:
    """floor(n^{1/(2+gamma)}), clamped to at least 2."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    # the tiny epsilon keeps exact powers (e.g. 1024^(1/3)) from flooring down
    return max(2, int(math.floor(n ** (1.0 / (2.0 + gamma)) + 1e-9)))


def total_bound_curve(n: int, gamma: float, C_R: float, m_values) -> np.ndarray:
    """Chain totals over an array of bin counts, the links summed in chain order.

    The links are density -> multinomial (the reconstruction rate; the
    exact-sufficiency direction costs nothing), multinomial -> Gaussian
    (Carter's two terms), then coordinates -> increments and increments ->
    white noise (the reconstruction rate again).  n, gamma, C_R and the
    smallest bin count are checked as in ``RateParams``.
    """
    m = np.asarray(m_values, dtype=float)
    RateParams(n=n, m=m.min() if m.size else 2, gamma=gamma, C_R=C_R)
    reconstruction = _rate_mn(n, m, gamma)
    carter = _carter_mn(n, m, C_R) + _carter_independent_mn(n, m, C_R)
    return reconstruction + carter + reconstruction + reconstruction


def minimize_total(n: int, gamma: float, C_R: float = 1.0) -> tuple[int, float]:
    """First minimizer of the chain total over every m in [2, n], and its total.

    Each link is convex in m: sqrt(n) m^{-3/2} and sqrt(n) m^{-1-gamma} are
    convex and decreasing, C_R (m ln m + m) / sqrt(n) is convex and
    increasing, so their sum is convex.  Bisecting on the sign of the
    forward difference T(m+1) - T(m) therefore keeps the first minimizer
    inside [lo, hi]; a final argmin over a window of at most
    ``_MINIMIZE_WINDOW`` points absorbs rounding near the flat bottom.
    Every total comes from ``total_bound_curve``, so the result equals a
    full-grid argmin bit for bit, with O(log n) evaluations and memory.
    Out-of-range n, gamma or C_R raise ``DomainError`` there.
    """
    lo, hi = 2, max(n, 2)
    while hi - lo >= _MINIMIZE_WINDOW:
        mid = (lo + hi) // 2
        here, after = total_bound_curve(n, gamma, C_R, [mid, mid + 1])
        if after < here:
            lo = mid + 1
        else:
            hi = mid
    m_window = np.arange(lo, hi + 1)
    totals = total_bound_curve(n, gamma, C_R, m_window)
    k = int(np.argmin(totals))
    return int(m_window[k]), float(totals[k])

