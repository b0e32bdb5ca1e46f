import math

import numpy as np
import pytest

from lecam.errors import NumericalError, UsageError
from lecam.quadrature import cell_integrals, integrate


def test_simpson_exact_for_cubics():
    # Simpson integrates polynomials up to degree 3 exactly
    val, err = integrate(lambda x: x**3, 0.0, 1.0, panels=1)
    assert val == pytest.approx(0.25, abs=1e-15)
    assert err < 1e-15


def test_integrate_smooth():
    val, err = integrate(np.cos, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.sin(1.0), abs=1e-11)
    assert err < 1e-12


def test_integrate_zero_width():
    assert integrate(np.cos, 0.3, 0.3) == (0.0, 0.0)


def test_integrate_knot_alignment():
    # |x - 1/3| has a kink; with the knot passed the result is exact quickly
    f = lambda x: np.abs(x - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    val, err = integrate(f, 0.0, 1.0, knots=[1.0 / 3.0], tol=1e-13)
    assert val == pytest.approx(exact, abs=1e-13)


def test_integrate_inverted_bounds():
    with pytest.raises(UsageError):
        integrate(np.cos, 1.0, 0.0)


def test_integrate_knots_make_piecewise_quadratics_exact():
    # a continuous piecewise quadratic with 40 kinks, each on a knot: Simpson
    # is exact on every cell, so the first refinement already agrees
    rng = np.random.default_rng(5)
    kinks = np.sort(rng.uniform(0.0, 1.0, 40))
    coefs = rng.normal(size=kinks.size)

    def f(x):
        # x^2 plus a sum of hinge terms |x - t| * (x - t), each a kink at t
        return x**2 + sum(c * np.abs(x - t) * (x - t) for c, t in zip(coefs, kinks))

    def primitive(x):
        return x**3 / 3.0 + sum(
            c * np.sign(x - t) * (x - t) ** 3 / 3.0 for c, t in zip(coefs, kinks)
        )

    val, err = integrate(f, 0.0, 1.0, knots=kinks, tol=1e-12)
    assert val == pytest.approx(primitive(1.0) - primitive(0.0), abs=1e-14)
    assert err < 1e-12


def test_both_entry_points_raise_at_the_panel_cap():
    # a jump at 1/pi lies on no dyadic panel edge, so the deltas shrink only
    # like 1/panels and tol=1e-15 is out of reach below PANEL_CAP
    f = lambda x: (x > 1.0 / math.pi).astype(float)
    with pytest.raises(NumericalError, match="did not reach tol"):
        integrate(f, 0.0, 1.0, tol=1e-15)
    with pytest.raises(NumericalError, match="did not reach tol"):
        cell_integrals(f, np.linspace(0.0, 1.0, 5), tol=1e-15)


def test_cell_integrals_constant():
    edges = np.linspace(0.0, 1.0, 9)
    vals = cell_integrals(lambda x: np.ones_like(x), edges)
    assert vals == pytest.approx(np.diff(edges), abs=1e-15)


def test_cell_integrals_matches_scalar_quadrature():
    edges = np.array([0.0, 0.3, 0.55, 1.0])
    vals = cell_integrals(lambda x: np.exp(x), edges, tol=1e-12)
    expect = np.diff(np.exp(edges))
    assert vals == pytest.approx(expect, rel=1e-10)


def test_cell_integrals_bad_edges():
    with pytest.raises(UsageError):
        cell_integrals(np.exp, np.array([0.5]))
