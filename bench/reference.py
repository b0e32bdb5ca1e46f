"""Independent references for the benchmark's correctness checks.

Nothing here imports ``lecam``.  Densities are rebuilt from their spec
strings with hand-written closed-form primitives, normal-pair distances
come from the normal CDF at crossing points the module solves for itself,
and quadrature references use ``scipy.integrate.quad`` rather than the
package's Simpson rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RefDensity:
    """A catalog density on [0, 1] given by its spec string.

    ``cosine:a1,...`` is 1 + sum_k a_k cos(2 pi k x) (the coefficients are
    used as given, so the spec must keep sum |a_k| <= 1/2), ``affine:a`` is
    1 + a (x - 1/2) and ``uniform`` is 1.
    """

    spec: str

    def _parts(self):
        name, _, args = self.spec.partition(":")
        values = [float(v) for v in args.split(",") if v.strip()]
        if name == "cosine" and sum(abs(v) for v in values) > 0.5:
            raise ValueError("cosine specs beyond sum |a_k| = 1/2 are rescaled by lecam")
        return name, values

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        name, a = self._parts()
        if name == "uniform":
            return np.ones_like(x)
        if name == "affine":
            return 1.0 + a[0] * (x - 0.5)
        return 1.0 + sum(ak * np.cos(TWO_PI * k * x) for k, ak in enumerate(a, 1))

    def primitive(self, x):
        """int_0^x f, in closed form."""
        x = np.asarray(x, dtype=float)
        name, a = self._parts()
        if name == "uniform":
            return x.copy()
        if name == "affine":
            return x + a[0] * (x * x - x) / 2.0
        return x + sum(
            ak * np.sin(TWO_PI * k * x) / (TWO_PI * k) for k, ak in enumerate(a, 1)
        )

    def cell_masses(self, m: int) -> np.ndarray:
        """theta_i = F(i/m) - F((i-1)/m) over the m equal cells."""
        return np.diff(self.primitive(np.arange(m + 1) / m))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Exact i.i.d. draws by inverting the primitive with bisection."""
        u = rng.uniform(size=n)
        lo, hi = np.zeros(n), np.ones(n)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self.primitive(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def fhat_knots(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knots and values of the tent reconstruction from cell masses theta.

    The reconstruction is linear between 0, the cell midpoints and 1,
    takes m theta_j at the j-th midpoint and is flat on both end half-cells.
    """
    theta = np.asarray(theta, dtype=float)
    m = theta.size
    mids = (np.arange(m) + 0.5) / m
    knots = np.concatenate([[0.0], mids, [1.0]])
    values = m * np.concatenate([[theta[0]], theta, [theta[-1]]])
    return knots, values


def fhat_cdf(theta: np.ndarray):
    """The exact (piecewise-quadratic) CDF of the reconstruction from theta."""
    knots, values = fhat_knots(theta)
    widths = np.diff(knots)
    slopes = np.diff(values) / widths
    base = np.concatenate([[0.0], np.cumsum(widths * (values[:-1] + values[1:]) / 2.0)])

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, widths.size - 1)
        dx = x - knots[k]
        return base[k] + values[k] * dx + slopes[k] * dx * dx / 2.0

    return cdf


def fhat_pdf(theta: np.ndarray):
    knots, values = fhat_knots(theta)
    return lambda x: np.interp(x, knots, values)


# --- normal pairs -----------------------------------------------------------


def normal_crossings(ma: float, va: float, mb: float, vb: float) -> list[float]:
    """Sorted real roots of phi_a(x) = phi_b(x).

    Taking logs, (x - mb)^2 / (2 vb) - (x - ma)^2 / (2 va) + log(vb / va) / 2 = 0.
    """
    qa = 0.5 / vb - 0.5 / va
    qb = ma / va - mb / vb
    qc = mb * mb / (2.0 * vb) - ma * ma / (2.0 * va) + 0.5 * math.log(vb / va)
    if qa == 0.0:
        return [] if qb == 0.0 else [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = [q / qa] if q == 0.0 else [q / qa, qc / q]
    return sorted(roots)


def _log_ratio(x, ma, va, mb, vb):
    """log phi_a(x) - log phi_b(x)."""
    return (
        -((x - ma) ** 2) / (2.0 * va)
        + (x - mb) ** 2 / (2.0 * vb)
        - 0.5 * math.log(va / vb)
    )


def normal_tv(ma: float, va: float, mb: float, vb: float) -> float:
    """TV between N(ma, va) and N(mb, vb): the mass where phi_a > phi_b, minus phi_b's."""
    cuts = [-math.inf] + normal_crossings(ma, va, mb, vb) + [math.inf]
    sa, sb = math.sqrt(va), math.sqrt(vb)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if math.isinf(lo) and math.isinf(hi):
            probe = 0.5 * (ma + mb)
        elif math.isinf(lo):
            probe = hi - 1.0
        elif math.isinf(hi):
            probe = lo + 1.0
        else:
            probe = 0.5 * (lo + hi)
        if _log_ratio(probe, ma, va, mb, vb) > 0.0:
            pa = special.ndtr((hi - ma) / sa) - special.ndtr((lo - ma) / sa)
            pb = special.ndtr((hi - mb) / sb) - special.ndtr((lo - mb) / sb)
            total += pa - pb
    return float(total)


def normal_h2(ma: float, va: float, mb: float, vb: float) -> float:
    """Squared Hellinger distance, H^2 = 2 (1 - Bhattacharyya coefficient)."""
    s = va + vb
    bc = math.sqrt(2.0 * math.sqrt(va * vb) / s) * math.exp(-((ma - mb) ** 2) / (4.0 * s))
    return 2.0 * (1.0 - bc)


def normal_l2_sq(ma: float, va: float, mb: float, vb: float) -> float:
    """int (phi_a - phi_b)^2 from Gaussian products: int phi_a phi_b = N(ma - mb; 0, va + vb)."""

    def cross(d, v):
        return math.exp(-d * d / (2.0 * v)) / math.sqrt(TWO_PI * v)

    return cross(0.0, 2.0 * va) + cross(0.0, 2.0 * vb) - 2.0 * cross(ma - mb, va + vb)


def normal_distance(metric: str, a: tuple[float, float], b: tuple[float, float]) -> float:
    """The value ``lecam distance --normal`` should print for ``metric``.

    The CLI's ``l2`` metric reports int (f - g)^2, the squared L2 distance.
    """
    if metric == "tv":
        return normal_tv(*a, *b)
    if metric == "l1":
        return 2.0 * normal_tv(*a, *b)
    if metric == "hellinger-sq":
        return normal_h2(*a, *b)
    if metric == "hellinger":
        return math.sqrt(normal_h2(*a, *b))
    if metric == "l2":
        return normal_l2_sq(*a, *b)
    raise ValueError(f"unknown metric {metric!r}")


# --- densities on [0, 1] ----------------------------------------------------


def _quad(fn, lo: float, hi: float, points=None) -> float:
    pts = None if points is None else [p for p in points if lo < p < hi] or None
    value, _ = integrate.quad(fn, lo, hi, points=pts, limit=400, epsabs=1e-14, epsrel=1e-12)
    return value


def crossings_01(f, g, grid: int = 4001) -> list[float]:
    """Points of [0, 1] where f - g changes sign, refined with brentq."""
    x = np.linspace(0.0, 1.0, grid)
    d = np.asarray(f(x)) - np.asarray(g(x))
    roots = []
    for k in np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]:
        roots.append(
            optimize.brentq(lambda t: float(f(t) - g(t)), x[k], x[k + 1], xtol=1e-15)
        )
    return roots


def density_distance(metric: str, fa: RefDensity, fb: RefDensity) -> float:
    """The value ``lecam distance --density`` should print, by scipy quad."""
    if metric in ("tv", "l1"):
        cuts = crossings_01(fa.pdf, fb.pdf)
        l1 = _quad(lambda t: abs(float(fa.pdf(t) - fb.pdf(t))), 0.0, 1.0, cuts)
        return l1 / 2.0 if metric == "tv" else l1
    if metric == "l2":
        return _quad(lambda t: float(fa.pdf(t) - fb.pdf(t)) ** 2, 0.0, 1.0)
    h2 = _quad(lambda t: (math.sqrt(fa.pdf(t)) - math.sqrt(fb.pdf(t))) ** 2, 0.0, 1.0)
    return h2 if metric == "hellinger-sq" else math.sqrt(h2)


def reconstruction_h2(f: RefDensity, m: int) -> float:
    """H^2(f, f_hat_m), integrating segment by segment between the knots."""
    knots, _ = fhat_knots(f.cell_masses(m))
    g = fhat_pdf(f.cell_masses(m))
    return sum(
        _quad(lambda t: (math.sqrt(f.pdf(t)) - math.sqrt(float(g(t)))) ** 2, lo, hi)
        for lo, hi in zip(knots[:-1], knots[1:])
    )


def tuning_m(n: int, gamma: float) -> int:
    """floor(n^(1 / (2 + gamma))), found by integer search so exact powers land."""
    m = max(2, int(n ** (1.0 / (2.0 + gamma))))
    while (m + 1) ** (2.0 + gamma) <= n * (1.0 + 1e-12):
        m += 1
    while m > 2 and m ** (2.0 + gamma) > n * (1.0 + 1e-12):
        m -= 1
    return m


def reconstruction_rate(n: int, m: int, gamma: float) -> float:
    """sqrt(n) (m^(-3/2) + m^(-1-gamma)), the reconstruction-link bound."""
    return math.sqrt(n) * (m**-1.5 + m ** (-1.0 - gamma))


def chain_total_minimum(n: int, gamma: float, c_r: float = 1.0) -> tuple[int, float]:
    """Minimizer over m in [2, n] of three reconstruction links plus Carter's two.

    Carter's links are C_R m log(m) / sqrt(n) and C_R m / sqrt(n).
    """
    m = np.arange(2, n + 1, dtype=float)
    rate = math.sqrt(n) * (m**-1.5 + m ** (-1.0 - gamma))
    totals = 3.0 * rate + c_r * (m * np.log(m) + m) / math.sqrt(n)
    k = int(np.argmin(totals))
    return int(m[k]), float(totals[k])


# --- finite laws ------------------------------------------------------------


def discrete_distances(a: dict, b: dict) -> tuple[float, float]:
    """(H^2, TV) between finite laws given as {point: mass} dictionaries."""
    h2 = 0.0
    l1 = 0.0
    for p in set(a) | set(b):
        pa, pb = a.get(p, 0.0), b.get(p, 0.0)
        h2 += (math.sqrt(pa) - math.sqrt(pb)) ** 2
        l1 += abs(pa - pb)
    return h2, l1 / 2.0
