"""Probability laws and the statistical distance toolbox.

Each distance has one route per kind of law: normal pairs get every
metric in closed form (``normal_distance``), product measures and finite
laws get exact formulas, and densities on [0, 1] get composite quadrature.
Total variation is normalized as half the L1 distance, so TV lies in
[0, 1] and the sandwich H^2/2 <= TV <= H holds.
"""

from __future__ import annotations

import math
import sys
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
    "normal_distance",
    "hellinger_sq_product",
    "hellinger_sq_quadrature",
    "hellinger_sq_discrete",
    "tv_sandwich",
    "tv_discrete",
]

_VALIDATE_GRID = 2001  # grid points on which DensityModel.validate checks the class
_VALIDATE_TOL = 1e-8   # slack on each of validate's bound, integral and Hoelder checks


@dataclass(frozen=True)
class DensityModel:
    """A density on [0, 1] with smoothness-class metadata.

    ``pdf`` must be vectorized (ndarray in, ndarray out).  The class
    parameters promise eps <= f <= M and a gamma-Hoelder derivative with
    constant K; ``deriv`` is the analytic f'.
    """

    pdf: Callable
    gamma: float
    K: float
    eps: float
    M: float
    deriv: Callable
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

    def validate(self) -> None:
        """Check the class invariants on a dense grid; raise DomainError."""
        x = np.linspace(0.0, 1.0, _VALIDATE_GRID)
        fx = np.asarray(self.pdf(x), dtype=float)
        if not np.isfinite(fx).all():
            raise DomainError(f"{self.name}: density not finite at x={x[~np.isfinite(fx)][0]:.6g}")
        if fx.min() < self.eps - _VALIDATE_TOL:
            raise DomainError(
                f"{self.name}: min density {fx.min():.6g} below eps={self.eps}"
            )
        if fx.max() > self.M + _VALIDATE_TOL:
            raise DomainError(
                f"{self.name}: max density {fx.max():.6g} above M={self.M}"
            )
        total, _ = integrate(self.pdf, 0.0, 1.0, tol=1e-10)
        if abs(total - 1.0) > _VALIDATE_TOL:
            raise DomainError(f"{self.name}: integral {total:.12g} != 1")
        # Hoelder spot-check on grid pairs: adjacent points plus long strides.
        d = np.asarray(self.deriv(x), dtype=float)
        for stride in (1, 7, 101, _VALIDATE_GRID // 2):
            gap = np.abs(d[stride:] - d[:-stride])
            dist = x[stride:] - x[:-stride]
            bound = self.K * dist**self.gamma + _VALIDATE_TOL
            if not np.all(gap <= bound):  # a NaN derivative fails here too
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


@dataclass(frozen=True)
class DiscreteLaw:
    """Finitely supported law as (point, mass) atoms."""

    atoms: tuple

    def __post_init__(self):
        masses = self.masses
        if masses.size == 0:
            raise DomainError("a discrete law needs at least one atom")
        if not (np.isfinite(masses).all() and np.isfinite(self.points).all()):
            raise DomainError("atom points and masses must be finite")
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
_METHODS = ("closed_form", "quadrature")


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


_SQRT2 = math.sqrt(2.0)
_FAR = 40.0  # |mu| > 40 (1 + r) puts the Bhattacharyya coefficient below e^-400
# four erf/erfc values, each within an ulp of a number <= 2, in two differences
_TV_ROUNDING = 4.0 * sys.float_info.epsilon


def _phi_diff(a: float, b: float) -> float:
    """Phi(b) - Phi(a): from erfc when a and b share a side of 0, else from erf."""
    if min(a, b) >= 0.0:
        return 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    if max(a, b) <= 0.0:
        return 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    return 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))


def _standard_tv(u: float, t: float, one_minus_t: float, log_r: float) -> float:
    """TV between N(0, 1) and N(mu, r^2), given u = mu / r >= 0 and t = 1 / r.

    N(0, 1) has the larger density between the roots lo < hi of
    (1 - t^2) x^2 + 2 u t x - (u^2 + 2 log r) (lo = -inf when r = 1); pairing
    Phi(hi) - Phi(hi t - u) and Phi(lo t - u) - Phi(lo) keeps small shifts exact.
    """
    quad, half_lin, const = one_minus_t * (1.0 + t), u * t, u * u + 2.0 * log_r
    q = half_lin + math.sqrt(half_lin * half_lin + quad * const)
    if q == 0.0:  # identical laws
        return 0.0
    hi, lo = const / q, (-q / quad if quad > 0.0 else -math.inf)
    return _phi_diff(hi * t - u, hi) + _phi_diff(lo, lo * t - u)


def _expm1_ratio(x: float) -> float:
    """(1 - exp(-x)) / x, with its limit 1 at x = 0, so that x may underflow."""
    return -math.expm1(-x) / x if x else 1.0


def normal_distance(a: NormalSpec, b: NormalSpec, metric: str) -> DistanceReport:
    """Any of ``METRICS`` between two normal laws, in closed form.

    In units of the narrower law, N(0, 1), the other is N(mu, r^2) with mu >= 0,
    r >= 1; TV and H depend on (mu, r) alone, L2^2 is the standardized form over
    sigma_narrow.  No form subtracts nearly equal terms: r - 1 is (v_w - v_n) /
    (s_n (s_n + s_w)), 1 - g and the L2 constant are squares over sums, and the
    mean shift enters through expm1.  Beyond |mu| = 40 (1 + r), or when r
    overflows, TV = 1 and H^2 = 2.  H, H^2 and L2^2 are relatively exact down to
    underflow (abs_error 0.0); TV and L1 carry the rounding bound of their Phi terms.
    """
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    narrow, wide = sorted((a, b), key=lambda s: s.variance)
    sn, sw = math.sqrt(narrow.variance), math.sqrt(wide.variance)
    gap = (wide.variance - narrow.variance) / (sn + sw)  # s_w - s_n
    t, one_minus_t = sn / sw, gap / sw  # 1 / r and 1 - 1 / r
    t_sq1 = 1.0 + t * t
    shift = abs(wide.mean - narrow.mean)  # inf if it overflows
    disjoint = not (shift <= _FAR * (sn + sw) and sw / sn < math.inf)  # or r overflows
    u = min(shift, _FAR * (sn + sw)) / sw  # mu / r, capped where the overlap is gone
    if metric in ("tv", "l1"):
        log_r = -math.log(t) if t < 0.5 else math.log1p(gap / sn)
        tv = 1.0 if disjoint else _standard_tv(u, t, one_minus_t, log_r)
        k = 1.0 if metric == "tv" else 2.0
        return DistanceReport(metric, k * tv, "closed_form", k * _TV_ROUNDING)
    if metric == "l2":
        # 2 sqrt(pi) s_n L2^2 = (1 + t - h) + h (1 - exp(-w^2)), h = 2 t sqrt(2 / (1 + t^2))
        h, w = 2.0 * t * math.sqrt(2.0 / t_sq1), u / math.sqrt(2.0 * t_sq1)
        spread = one_minus_t * one_minus_t * ((1.0 + t) ** 2 + 2.0 * t) / (t_sq1 * (1.0 + t + h))
        value = spread / sn + h * w * (w / sn) * _expm1_ratio(w * w)
        return DistanceReport(metric, value / (2.0 * math.sqrt(math.pi)), "closed_form")
    # H^2 / 2 = (1 - g) + g (1 - exp(-v^2)) with g^2 = 2 t / (1 + t^2) and
    # 1 - g = (1 - t)^2 / ((1 + t^2) (1 + g))
    g, v = math.sqrt(2.0 * t / t_sq1), u / (2.0 * math.sqrt(t_sq1))
    spread = one_minus_t / math.sqrt(t_sq1 * (1.0 + g))
    h = min(_SQRT2 * math.hypot(spread, v * math.sqrt(g * _expm1_ratio(v * v))), _SQRT2)
    if metric == "hellinger-sq":
        return DistanceReport(metric, 2.0 if disjoint else min(h * h, 2.0), "closed_form")
    return DistanceReport(metric, _SQRT2 if disjoint else h, "closed_form")


def hellinger_sq_product(components: Sequence[float]) -> float:
    """Squared Hellinger distance between product measures.

    ``components`` are the per-coordinate squared Hellinger distances; the
    product rule is H^2 = 2 [1 - prod_j (1 - H_j^2 / 2)].
    """
    comps = np.asarray(components, dtype=float)
    if comps.size and not (comps.min() >= -1e-12 and comps.max() <= 2.0 + 1e-12):
        raise DomainError("component H^2 values must be finite and lie in [0, 2]")
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


def hellinger_sq_quadrature(f, g, *, knots=None) -> tuple[float, float]:
    """Squared Hellinger distance on [0, 1] by composite quadrature of (sqrt f - sqrt g)^2.

    Returns ``(value, abs_error)`` with the error taken from panel
    refinement, starting from 16 panels per cell; a refinement that reaches
    the panel cap raises NumericalError.  ``knots`` should list kink locations (cell edges and
    midpoints for piecewise-linear reconstructions) so panels align.
    """
    fp, gp = (getattr(h, "pdf", h) for h in (f, g))  # laws or bare pdf callables

    def integrand(x):
        fv = np.asarray(fp(x), dtype=float)
        gv = np.asarray(gp(x), dtype=float)
        if fv.min() < -1e-12 or gv.min() < -1e-12:
            raise DomainError("negative density values in Hellinger quadrature")
        return (np.sqrt(np.clip(fv, 0.0, None)) - np.sqrt(np.clip(gv, 0.0, None))) ** 2

    value, err = integrate(integrand, 0.0, 1.0, knots=knots, panels=16)
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
