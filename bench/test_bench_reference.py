"""Pins the benchmark's independent references to hand-worked values.

Run with ``python -m pytest bench``.  None of these tests imports lecam.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import reference as ref


def test_tv_of_normals_with_unequal_variances():
    # N(0,1) and N(0,4) cross at +-sqrt(8 ln 2 / 3) = +-1.35956
    assert ref.normal_crossings(0.0, 1.0, 0.0, 4.0) == pytest.approx([-1.3595559869, 1.3595559869])
    assert ref.normal_tv(0.0, 1.0, 0.0, 4.0) == pytest.approx(0.3226745688, abs=1e-10)


def test_tv_of_a_narrow_spike_against_a_wide_normal():
    assert ref.normal_tv(0.0, 1e-6, 1.0, 1.0) == pytest.approx(0.9980187093, abs=1e-10)


def test_tv_of_equal_variance_normals_is_the_shifted_cdf_gap():
    # one crossing at the midpoint: TV = 2 Phi(d / 2 sigma) - 1
    assert ref.normal_tv(0.3, 1.5, -0.4, 1.5) == pytest.approx(
        2.0 * stats.norm.cdf(0.35 / math.sqrt(1.5)) - 1.0, abs=1e-14
    )


@pytest.mark.parametrize("a,b", [((0.0, 1.0), (0.0, 4.0)), ((0.3, 0.7), (-0.4, 1.9))])
def test_normal_closed_forms_match_quadrature(a, b):
    pa, pb = stats.norm(a[0], math.sqrt(a[1])).pdf, stats.norm(b[0], math.sqrt(b[1])).pdf
    lo, hi = -30.0, 30.0
    h2 = integrate.quad(lambda x: (math.sqrt(pa(x)) - math.sqrt(pb(x))) ** 2, lo, hi, limit=200)[0]
    l2 = integrate.quad(lambda x: (pa(x) - pb(x)) ** 2, lo, hi, limit=200)[0]
    cuts = ref.normal_crossings(*a, *b)
    l1 = integrate.quad(lambda x: abs(pa(x) - pb(x)), lo, hi, points=cuts, limit=200)[0]
    assert ref.normal_h2(*a, *b) == pytest.approx(h2, abs=1e-10)
    assert ref.normal_l2_sq(*a, *b) == pytest.approx(l2, abs=1e-10)
    assert ref.normal_distance("l1", a, b) == pytest.approx(l1, abs=1e-9)


def test_first_cell_mass_of_the_cosine_density():
    # theta_1 = 1/16 + 0.3 sin(pi/8) / (2 pi) for cosine:0.3 at m = 16
    theta = ref.RefDensity("cosine:0.3").cell_masses(16)
    assert theta[0] == pytest.approx(0.0807717880, abs=1e-10)
    assert theta.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("spec", ["uniform", "affine:0.5", "cosine:0.2,-0.1"])
def test_primitive_integrates_the_pdf(spec):
    f = ref.RefDensity(spec)
    for x in (0.1, 0.37, 1.0):
        assert f.primitive(x) == pytest.approx(integrate.quad(f.pdf, 0.0, x)[0], abs=1e-13)


def test_reconstruction_cdf_is_exact():
    f = ref.RefDensity("cosine:0.3")
    theta = f.cell_masses(8)
    cdf, pdf = ref.fhat_cdf(theta), ref.fhat_pdf(theta)
    knots, _ = ref.fhat_knots(theta)
    for x in (0.03, 0.5, 0.77, 1.0):
        kinks = [k for k in knots if 0.0 < k < x]
        exact = integrate.quad(pdf, 0.0, x, points=kinks or None, limit=100)[0]
        assert cdf(x) == pytest.approx(exact, abs=1e-13)
    # the tents carry mass theta_j each, so the reconstruction has mass one
    assert cdf(0.0) == 0.0
    assert cdf(1.0) == pytest.approx(1.0, abs=1e-15)


def test_sampler_follows_the_density():
    f = ref.RefDensity("cosine:0.1,0.2")
    xs = f.sample(20_000, np.random.default_rng(0))
    assert stats.kstest(xs, f.primitive).pvalue > 0.001


def test_discrete_distances_by_hand():
    a = {0.0: 0.5, 0.5: 0.5}
    b = {0.5: 0.25, 1.0: 0.75}
    h2, tv = ref.discrete_distances(a, b)
    assert tv == pytest.approx(0.75)
    assert h2 == pytest.approx(0.5 + (math.sqrt(0.5) - 0.5) ** 2 + 0.75)


def test_tuning_rule_lands_on_exact_powers():
    assert ref.tuning_m(1024, 1.0) == 10
    assert ref.tuning_m(1_000_000, 1.0) == 100
    assert ref.tuning_m(999_999, 1.0) == 99


def test_chain_total_minimum_is_a_grid_minimum():
    m, total = ref.chain_total_minimum(10_000, 1.0)
    def at(k):
        return 3.0 * ref.reconstruction_rate(10_000, k, 1.0) + (k * math.log(k) + k) / 100.0
    assert total == pytest.approx(at(m), rel=1e-12)
    assert at(m) <= min(at(m - 1), at(m + 1))
