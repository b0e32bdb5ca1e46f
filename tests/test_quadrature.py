import math

import numpy as np
import pytest

import lecam.quadrature
from lecam.approx import reconstruct
from lecam.densities import parse_spec
from lecam.errors import NumericalError, UsageError
from lecam.quadrature import PANEL_CAP, cell_integrals, integrate


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


def _reference(f, edges, p, tol, delta):
    """The plain refinement: every level evaluates all of its points afresh."""
    cells = len(edges) - 1

    def level(p):
        offs = np.linspace(0.0, 1.0, 2 * p + 1)
        widths = np.diff(edges)
        x = edges[:-1, None] + widths[:, None] * offs[None, :]
        y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        w = np.ones(2 * p + 1)
        w[1::2] = 4.0
        w[2:-1:2] = 2.0
        return (widths / (6.0 * p)) * (y * w).sum(axis=1)

    prev = level(p)
    while True:
        p *= 2
        cur = level(p)
        change = delta(cur, prev)
        if change < tol:
            return cur, change
        assert p * cells < PANEL_CAP, "reference did not converge"
        prev = cur


def _sum_delta(cur, prev):
    return abs(cur.sum() - prev.sum())


def _cell_delta(cur, prev):
    return np.abs(cur - prev).sum()


def _integrands():
    f = parse_spec("cosine:0.3,0.1")
    fhat = reconstruct(f, 7)
    return [
        ("cos", np.cos),
        ("kink", lambda x: np.abs(x - 1.0 / 3.0)),
        ("density", f.pdf),
        ("hellinger", lambda x: (np.sqrt(f.pdf(x)) - np.sqrt(fhat.pdf(x))) ** 2),
    ]


@pytest.mark.parametrize("panels", [1, 3, 4, 16])
@pytest.mark.parametrize("knots", [None, [0.1, 1.0 / 3.0, 0.5, 0.9]])
def test_integrate_is_bitwise_the_reevaluating_rule(panels, knots):
    for name, f in _integrands():
        got = integrate(f, 0.0, 1.0, knots=knots, panels=panels, tol=1e-11)
        pts = [0.0, 1.0, *(knots or [])]
        edges = np.unique(np.asarray(pts, dtype=float))
        values, err = _reference(f, edges, panels, 1e-11, _sum_delta)
        assert got == (float(values.sum()), float(err)), name


@pytest.mark.parametrize("edges", [np.linspace(0.0, 1.0, 9), np.arange(8.0) / 7.0])
def test_cell_integrals_is_bitwise_the_reevaluating_rule(edges):
    for name, f in _integrands():
        got = cell_integrals(f, edges, tol=1e-13)
        want, _ = _reference(f, edges, 4, 1e-13, _cell_delta)
        assert np.array_equal(got, want), name


def test_each_point_is_evaluated_once():
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return np.exp(np.sin(7.0 * x))

    cells, panels = 3, 4
    integrate(counted, 0.0, 1.0, knots=[0.2, 0.7], panels=panels, tol=1e-12)
    assert len(sizes) >= 3  # two refinements at least, so a point could repeat
    final = panels * 2 ** (len(sizes) - 1)
    # the first level takes all of its 2p + 1 points per cell, each later level
    # only the p new ones, so the call evaluates exactly the final level's points
    assert sizes == [cells * (2 * panels + 1)] + [
        cells * panels * 2**k for k in range(1, len(sizes))
    ]
    assert sum(sizes) == cells * (2 * final + 1)


def test_oversized_first_refinement_raises_before_any_evaluation(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x.size)
        return np.ones_like(x)

    monkeypatch.setattr(lecam.quadrature, "PANEL_CAP", 64)
    # 64 cells at 4 panels: the first refinement needs 512 panels, just within 8 * 64
    assert cell_integrals(counted, np.linspace(0.0, 1.0, 65)) == pytest.approx(
        np.full(64, 1.0 / 64.0), abs=1e-15
    )
    calls.clear()
    # 65 cells: the first refinement needs 8 * 65 = 520 panels, above 8 * 64
    with pytest.raises(NumericalError, match="8 panels per cell over 65 cells, above 512$"):
        cell_integrals(counted, np.linspace(0.0, 1.0, 66))
    with pytest.raises(NumericalError, match="514 panels per cell over 1 cells, above 512$"):
        integrate(counted, 0.0, 1.0, panels=257)
    assert calls == []
