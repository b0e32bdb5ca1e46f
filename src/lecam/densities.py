"""Built-in density catalog.

Every entry has a closed-form derivative (``deriv``) and a closed-form
antiderivative, which the tests write out to check quadrature output.
``cosine`` clamps its coefficients into the class; ``parse_spec`` refuses a
spec it would clamp.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UsageError
from .measures import DensityModel

__all__ = ["uniform", "cosine", "affine", "parse_spec", "CATALOG"]

_TWO_PI = 2.0 * math.pi
_MAX_COS_MASS = 0.5  # sum |a_k| is clamped here, keeping eps >= 1/2


def uniform(gamma: float = 1.0) -> DensityModel:
    """The uniform density on [0, 1]."""
    return DensityModel(
        pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        gamma=gamma,
        K=1.0,
        eps=1.0,
        M=1.0,
        deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name="uniform",
    )


def cosine(coeffs, gamma: float = 1.0) -> DensityModel:
    """f(x) = 1 + sum_k a_k cos(2 pi k x), clamped into the class.

    Coefficients are rescaled when sum |a_k| exceeds 1/2, which pins
    eps = 1 - sum|a_k| >= 1/2 and M = 1 + sum|a_k| <= 3/2.  The Hoelder
    constant is sup|f''| = 4 pi^2 sum k^2 |a_k|, valid for every
    gamma in (0, 1] because |x - y| <= 1 on the unit interval.
    """
    a = np.asarray(coeffs, dtype=float).ravel()
    if a.size == 0 or not np.all(np.isfinite(a)):
        raise DomainError("cosine coefficients must be a nonempty finite list")
    s = np.abs(a).sum()
    if s > _MAX_COS_MASS:
        a = a * (_MAX_COS_MASS / s)
        s = _MAX_COS_MASS
    if s == 0.0:
        return uniform(gamma)
    k = np.arange(1, a.size + 1, dtype=float)

    def series(x, start, coef, wave):
        """start(x) + sum_k coef_k wave(2 pi k x), skipping zero coefficients."""
        x = np.asarray(x, dtype=float)
        out = start(x)
        term = np.empty_like(out)
        for kk, c in zip(k, coef):
            if c == 0.0:
                continue
            np.multiply(_TWO_PI * kk, x, out=term)
            wave(term, out=term)
            term *= c
            out += term
        return out

    def pdf(x):
        return series(x, np.ones_like, a, np.cos)

    def deriv(x):
        return series(x, np.zeros_like, -(a * _TWO_PI * k), np.sin)

    last = int(np.nonzero(a)[0].max()) + 1
    return DensityModel(
        pdf=pdf,
        gamma=gamma,
        K=float(4.0 * math.pi**2 * (k**2 * np.abs(a)).sum()),
        eps=float(1.0 - s),
        M=float(1.0 + s),
        deriv=deriv,
        name="cosine:" + ",".join(f"{c:g}" for c in a[:last]),
    )


def affine(slope: float, gamma: float = 1.0) -> DensityModel:
    """f(x) = 1 + a (x - 1/2); needs |a| < 2 to stay positive."""
    if not abs(slope) < 2.0:
        raise DomainError(f"affine slope must satisfy |a| < 2, got {slope}")
    a = float(slope)

    def pdf(x):
        return 1.0 + a * (np.asarray(x, dtype=float) - 0.5)

    def deriv(x):
        return np.full_like(np.asarray(x, dtype=float), a)

    return DensityModel(
        pdf=pdf,
        gamma=gamma,
        K=1.0,
        eps=1.0 - abs(a) / 2.0,
        M=1.0 + abs(a) / 2.0,
        deriv=deriv,
        name=f"affine:{a:g}",
    )


CATALOG = {"uniform": uniform, "cosine": cosine, "affine": affine}


def parse_spec(text: str, gamma: float = 1.0) -> DensityModel:
    """Parse a density spec such as 'uniform', 'cosine:0.3,0.1' or 'affine:0.5'."""
    name, _, args = text.partition(":")
    name = name.strip().lower()
    if name == "uniform":
        if args:
            raise UsageError("uniform takes no arguments")
        return uniform(gamma)
    if name not in CATALOG:
        raise UsageError(
            f"unknown density {name!r}; available: {', '.join(sorted(CATALOG))}"
        )
    try:
        values = [float(v) for v in args.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad density arguments {args!r}: {exc}") from None
    if not values:
        raise UsageError(f"{name} requires numeric arguments, e.g. '{name}:0.3'")
    if name == "affine":
        if len(values) != 1:
            raise UsageError("affine takes exactly one slope argument")
        return affine(values[0], gamma=gamma)
    if np.abs(values).sum() > _MAX_COS_MASS:  # cosine() would clamp it to another density
        raise UsageError(f"cosine spec {args!r} has sum |a_k| > 1/2, outside the class")
    return cosine(values, gamma=gamma)
