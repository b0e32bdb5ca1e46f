"""Probability laws and the statistical distance toolbox.

Distances come in two routes wherever possible: a closed form (normal
pairs, product measures, finite laws) and a quadrature fallback for
arbitrary densities.  Total variation is normalized as half the L1
distance, so TV lies in [0, 1] and the sandwich H^2/2 <= TV <= H holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .quadrature import integrate

__all__ = [
    "DensityModel",
    "NormalSpec",
    "DiscreteLaw",
    "PiecewiseLinearDensity",
    "DistanceReport",
    "METRICS",
    "hellinger_sq_normal",
    "hellinger_sq_product",
    "hellinger_sq_quadrature",
    "hellinger_sq_discrete",
    "tv_sandwich",
    "tv_discrete",
    "normal_support",
]

_FD_STEP = 1e-6  # central-difference step for f' when no analytic derivative


@dataclass(frozen=True)
class DensityModel:
    """A density on [0, 1] with smoothness-class metadata.

    ``pdf`` must be vectorized (ndarray in, ndarray out).  The class
    parameters promise eps <= f <= M and a gamma-Hoelder derivative with
    constant K.  ``deriv`` and ``primitive`` are optional analytic hooks;
    the primitive is normalized so that primitive(0) = 0.
    """

    pdf: Callable
    gamma: float
    K: float
    eps: float
    M: float
    deriv: Callable | None = None
    primitive: Callable | None = None
    name: str = "density"

    def __post_init__(self):
        for name in ("gamma", "K", "eps", "M"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.gamma <= 1.0):
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.K <= 0.0:
            raise DomainError(f"K must be positive, got {self.K}")
        if self.eps <= 0.0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        if self.M < self.eps:
            raise DomainError(f"M={self.M} must be >= eps={self.eps}")

    def derivative(self, x):
        """f'(x), analytic when available, else central differences."""
        if self.deriv is not None:
            return self.deriv(x)
        x = np.asarray(x, dtype=float)
        lo = np.clip(x - _FD_STEP, 0.0, 1.0)
        hi = np.clip(x + _FD_STEP, 0.0, 1.0)
        return (self.pdf(hi) - self.pdf(lo)) / (hi - lo)

    def validate(self, grid_points: int = 2001, tol: float = 1e-8) -> None:
        """Check the class invariants on a dense grid; raise DomainError."""
        x = np.linspace(0.0, 1.0, grid_points)
        fx = np.asarray(self.pdf(x), dtype=float)
        if fx.min() < self.eps - tol:
            raise DomainError(
                f"{self.name}: min density {fx.min():.6g} below eps={self.eps}"
            )
        if fx.max() > self.M + tol:
            raise DomainError(
                f"{self.name}: max density {fx.max():.6g} above M={self.M}"
            )
        total, _ = integrate(self.pdf, 0.0, 1.0, tol=1e-10)
        if abs(total - 1.0) > tol:
            raise DomainError(f"{self.name}: integral {total:.12g} != 1")
        # Hoelder spot-check on grid pairs: adjacent points plus long strides.
        d = np.asarray(self.derivative(x), dtype=float)
        fd_slack = 10.0 * _FD_STEP if self.deriv is None else 0.0
        for stride in (1, 7, 101, grid_points // 2):
            gap = np.abs(d[stride:] - d[:-stride])
            dist = x[stride:] - x[:-stride]
            bound = self.K * dist**self.gamma + self.K * fd_slack + tol
            if np.any(gap > bound):
                k = int(np.argmax(gap - bound))
                raise DomainError(
                    f"{self.name}: Hoelder violation |f'({x[k + stride]:.4f})"
                    f"-f'({x[k]:.4f})| = {gap[k]:.6g} > K*dx^gamma"
                )


@dataclass(frozen=True)
class NormalSpec:
    """Mean/variance pair for a one-dimensional normal law."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise DomainError(
                f"normal parameters must be finite, got {self.mean},{self.variance}"
            )
        if not self.variance > 0.0:
            raise DomainError(f"variance must be positive, got {self.variance}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) ** 2 / (2.0 * self.variance)
        return np.exp(-z) / math.sqrt(2.0 * math.pi * self.variance)


@dataclass(frozen=True)
class DiscreteLaw:
    """Finitely supported law as (point, mass) atoms."""

    atoms: tuple

    def __post_init__(self):
        masses = np.asarray([m for _, m in self.atoms], dtype=float)
        if masses.size == 0:
            raise DomainError("a discrete law needs at least one atom")
        if masses.min() < -1e-15:
            raise DomainError(f"negative mass {masses.min():g}")
        if abs(masses.sum() - 1.0) > 1e-12:
            raise DomainError(f"masses sum to {masses.sum():.15g}, not 1")
        pts = [p for p, _ in self.atoms]
        if len(set(pts)) != len(pts):
            raise DomainError("duplicate atom points")

    @property
    def points(self) -> np.ndarray:
        return np.asarray([p for p, _ in self.atoms], dtype=float)

    @property
    def masses(self) -> np.ndarray:
        return np.asarray([m for _, m in self.atoms], dtype=float)


@dataclass(frozen=True)
class PiecewiseLinearDensity:
    """Densities on [knots[0], knots[-1]] that are linear between the knots.

    ``values`` has shape (..., len(knots)); its leading axes index laws, so
    one object can hold a whole family on the same knots, such as the tent
    basis ``TentBasis.mixture(np.eye(m))``.  Each law must be nonnegative
    and integrate to 1.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.ndim != 1 or knots.size < 2 or values.shape[-1:] != knots.shape:
            raise UsageError("values must end in an axis matching the 1-d knots")
        if np.any(np.diff(knots) <= 0.0):
            raise UsageError("knots must be strictly increasing")
        if not values.min() >= 0.0:  # NaN fails here too
            raise DomainError(f"density values must be nonnegative, got {values.min():g}")
        total = self.integral()
        if not np.abs(total - 1.0).max() <= 1e-12:
            raise DomainError(f"law integrates to {np.ravel(total)}, not 1")

    def integral(self):
        """Exact integral of each law (trapezoid rule is exact here)."""
        return np.trapezoid(self.values, self.knots, axis=-1)

    def pdf(self, x) -> np.ndarray:
        """Density values, shape values.shape[:-1] + x.shape."""
        x = np.asarray(x, dtype=float)
        rows = self.values.reshape(-1, self.knots.size)
        out = np.stack([np.interp(x, self.knots, row) for row in rows])
        return out.reshape(self.values.shape[:-1] + x.shape)

    def cdf(self, x) -> np.ndarray:
        """Exact piecewise-quadratic CDF, shape values.shape[:-1] + x.shape.

        It is exactly 0 at or below the first knot and exactly 1 at or above
        the last, whatever rounding the segment masses carry.
        """
        x = np.asarray(x, dtype=float)
        k, v = self.knots, self.values
        seg_mass = np.diff(k) * (v[..., 1:] + v[..., :-1]) / 2.0
        cum = np.insert(np.cumsum(seg_mass, axis=-1), 0, 0.0, axis=-1)
        idx = np.clip(np.searchsorted(k, x, side="right") - 1, 0, k.size - 2)
        x0 = k[idx]
        dx = np.clip(x, k[0], k[-1]) - x0
        # np.take keeps the gathered arrays C-ordered, unlike v[..., idx]
        v0 = np.take(v, idx, axis=-1)
        slope = (np.take(v, idx + 1, axis=-1) - v0) / (k[idx + 1] - x0)
        out = np.take(cum, idx, axis=-1) + v0 * dx + slope * (dx**2 / 2.0)
        return np.where(x >= k[-1], 1.0, np.clip(out, 0.0, 1.0, out=out))


METRICS = ("tv", "hellinger", "hellinger-sq", "l1", "l2")
_METHODS = ("closed_form", "quadrature", "monte_carlo")


@dataclass(frozen=True)
class DistanceReport:
    """A computed distance plus how it was computed."""

    metric: str
    value: float
    method: str
    abs_error: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.metric not in METRICS:
            raise DomainError(f"unknown metric {self.metric!r}")
        if self.method not in _METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.abs_error)):
            raise DomainError(f"non-finite distance {self.value} (error {self.abs_error})")
        if self.value < -1e-12:
            raise DomainError(f"negative distance {self.value:g}")
        if self.metric == "tv" and self.value > 1.0 + 1e-9:
            raise DomainError(f"TV={self.value:g} exceeds 1")
        if self.metric == "hellinger" and self.value > math.sqrt(2.0) + 1e-9:
            raise DomainError(f"H={self.value:g} exceeds sqrt(2)")
        if self.metric == "hellinger-sq" and self.value > 2.0 + 1e-9:
            raise DomainError(f"H^2={self.value:g} exceeds 2")


def hellinger_sq_normal(a: NormalSpec, b: NormalSpec) -> float:
    """Squared Hellinger distance between two normal laws, closed form."""
    s = a.variance + b.variance
    geo = math.sqrt(2.0 * math.sqrt(a.variance * b.variance) / s)
    return 2.0 * (1.0 - geo * math.exp(-((a.mean - b.mean) ** 2) / (4.0 * s)))


def hellinger_sq_product(components: Sequence[float]) -> float:
    """Squared Hellinger distance between product measures.

    ``components`` are the per-coordinate squared Hellinger distances; the
    product rule is H^2 = 2 [1 - prod_j (1 - H_j^2 / 2)].
    """
    comps = np.asarray(components, dtype=float)
    if comps.size and (comps.min() < -1e-12 or comps.max() > 2.0 + 1e-12):
        raise DomainError("component H^2 values must lie in [0, 2]")
    # log-space product keeps n ~ 1e4 identical factors accurate
    one_minus = np.clip(1.0 - comps / 2.0, 0.0, 1.0)
    if np.any(one_minus == 0.0):
        result = 2.0
    else:
        result = float(2.0 * -np.expm1(np.log(one_minus).sum()))
    # subadditivity is a theorem; failing it means a numerics bug
    if not result <= comps.sum() + 1e-12:
        raise NumericalError(
            f"product rule broke subadditivity: {result!r} > {comps.sum()!r}"
        )
    return result


def _as_pdf(obj) -> Callable:
    if callable(obj):
        return obj
    if hasattr(obj, "pdf"):
        return obj.pdf
    raise DomainError(f"cannot interpret {type(obj)!r} as a density")


def hellinger_sq_quadrature(
    f,
    g,
    *,
    domain: tuple[float, float] = (0.0, 1.0),
    knots=None,
) -> tuple[float, float]:
    """Squared Hellinger distance by composite quadrature of (sqrt f - sqrt g)^2.

    Returns ``(value, abs_error)`` with the error taken from panel
    refinement, starting from 16 panels per cell; a refinement that reaches
    the panel cap raises NumericalError.  ``knots`` should list kink locations (cell edges and
    midpoints for piecewise-linear reconstructions) so panels align.
    """
    fp, gp = _as_pdf(f), _as_pdf(g)

    def integrand(x):
        fv = np.asarray(fp(x), dtype=float)
        gv = np.asarray(gp(x), dtype=float)
        if fv.min() < -1e-12 or gv.min() < -1e-12:
            raise DomainError("negative density values in Hellinger quadrature")
        return (np.sqrt(np.clip(fv, 0.0, None)) - np.sqrt(np.clip(gv, 0.0, None))) ** 2

    value, err = integrate(integrand, domain[0], domain[1], knots=knots, panels=16)
    return max(value, 0.0), err


def _masses_on_union(a: DiscreteLaw, b: DiscreteLaw) -> tuple[np.ndarray, np.ndarray]:
    """Both laws' masses on the sorted union of their supports (0 off-support)."""
    pts = np.union1d(a.points, b.points)
    pa, pb = np.zeros(pts.size), np.zeros(pts.size)
    pa[np.searchsorted(pts, a.points)] = a.masses
    pb[np.searchsorted(pts, b.points)] = b.masses
    return pa, pb


def hellinger_sq_discrete(a: DiscreteLaw, b: DiscreteLaw) -> float:
    """Exact squared Hellinger distance over the union of finite supports."""
    pa, pb = _masses_on_union(a, b)
    return float(((np.sqrt(pa) - np.sqrt(pb)) ** 2).sum())


def tv_sandwich(h_sq: float) -> tuple[float, float]:
    """(lower, upper) bounds on total variation from a squared Hellinger value."""
    if not (-1e-12 <= h_sq <= 2.0 + 1e-12):
        raise DomainError(f"H^2 must lie in [0, 2], got {h_sq}")
    h_sq = min(max(h_sq, 0.0), 2.0)
    return h_sq / 2.0, math.sqrt(h_sq)


def tv_discrete(a: DiscreteLaw, b: DiscreteLaw) -> float:
    """Exact total variation (half L1) between finite laws."""
    pa, pb = _masses_on_union(a, b)
    return float(0.5 * np.abs(pa - pb).sum())


def normal_support(a: NormalSpec, b: NormalSpec) -> tuple[float, float]:
    """Truncated quadrature domain holding all but ~1e-15 of both masses."""
    sd = max(math.sqrt(a.variance), math.sqrt(b.variance))
    return min(a.mean, b.mean) - 8.0 * sd, max(a.mean, b.mean) + 8.0 * sd
