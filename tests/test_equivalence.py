import math
import tracemalloc

import numpy as np
import pytest

import lecam.equivalence
from lecam.equivalence import (
    RateParams,
    bound_carter_independent,
    bound_carter_multinomial,
    bound_density_reconstruction,
    choose_m,
    minimize_total,
    total_bound_curve,
)
from lecam.errors import DomainError


def target_rate(n: int, gamma: float) -> float:
    """The advertised end-to-end rate at the tuning rule's m.

    n^{-gamma/(2(gamma+2))} log n for gamma <= 1/2 and n^{-1/10} log n
    above; ratio checks divide measured totals by this.
    """
    if gamma <= 0.5:
        return n ** (-gamma / (2.0 * (gamma + 2.0))) * math.log(n)
    return n ** (-0.1) * math.log(n)


class TestReconstructionRate:
    def test_vanishes_for_large_m(self):
        p = RateParams(n=1, m=10**6, gamma=1.0)
        assert bound_density_reconstruction(p) < 2e-9

    def test_dominant_exponent_at_gamma_one(self):
        # at gamma = 1 the m^{-3/2} term dominates: doubling m divides by ~2^1.5
        big, bigger = 2**12, 2**13
        r1 = bound_density_reconstruction(RateParams(n=4, m=big, gamma=1.0))
        r2 = bound_density_reconstruction(RateParams(n=4, m=bigger, gamma=1.0))
        assert r1 / r2 == pytest.approx(2**1.5, rel=2e-2)

    def test_terms_equal_at_gamma_half(self):
        p = RateParams(n=9, m=100, gamma=0.5)
        assert bound_density_reconstruction(p) == pytest.approx(
            3.0 * 2.0 * 100**-1.5, rel=1e-12
        )

    def test_tuned_substitution(self):
        # at n = m^(2+gamma) the bound equals m^{(2+gamma)/2} (m^-1.5 + m^-(1+gamma))
        for m, gamma in ((16, 1.0), (27, 0.5)):
            n = int(round(m ** (2.0 + gamma)))
            p = RateParams(n=n, m=m, gamma=gamma)
            expect = math.sqrt(n) * (m**-1.5 + m ** -(1.0 + gamma))
            assert bound_density_reconstruction(p) == pytest.approx(expect, rel=1e-12)


class TestCarterRates:
    def test_multinomial_values(self):
        assert bound_carter_multinomial(RateParams(4, 2, 1.0)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_real_valued_m(self):
        # the formula itself accepts fractional bin counts: m = e gives C_R e / sqrt(n)
        assert bound_carter_multinomial(RateParams(16, math.e, 1.0)) == pytest.approx(
            math.e / 4.0, rel=1e-12
        )

    def test_quadrupling_n_halves(self):
        a = bound_carter_multinomial(RateParams(100, 8, 1.0))
        b = bound_carter_multinomial(RateParams(400, 8, 1.0))
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_independent_values(self):
        assert bound_carter_independent(RateParams(4, 2, 1.0)) == 1.0
        assert bound_carter_independent(RateParams(4, 4, 1.0)) == 2.0
        # n = m^2 gives exactly C_R
        assert bound_carter_independent(
            RateParams(64, 8, 1.0, C_R=2.5)
        ) == pytest.approx(2.5)

    def test_constant_scales(self):
        a = bound_carter_multinomial(RateParams(100, 8, 1.0, C_R=1.0))
        b = bound_carter_multinomial(RateParams(100, 8, 1.0, C_R=3.0))
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_param_guards(self):
        with pytest.raises(DomainError):
            RateParams(0, 4, 1.0)
        with pytest.raises(DomainError):
            RateParams(math.nan, 4, 1.0)
        with pytest.raises(DomainError):
            RateParams(4, 1, 1.0)
        with pytest.raises(DomainError):
            RateParams(4, math.nan, 1.0)
        with pytest.raises(DomainError):
            RateParams(4, 4, 1.5)
        with pytest.raises(DomainError):
            RateParams(4, 4, 1.0, C_R=0.0)


class TestChooseM:
    def test_spec_values(self):
        assert choose_m(1024, 1.0) == 10
        assert choose_m(10**6, 0.5) == 251
        assert choose_m(2, 0.7) == 2

    def test_exact_cube(self):
        # floating-point cube roots of exact cubes must not round down
        assert choose_m(1000, 1.0) == 10
        assert choose_m(8**3, 1.0) == 8

    def test_guards(self):
        with pytest.raises(DomainError):
            choose_m(1, 1.0)
        with pytest.raises(DomainError):
            choose_m(100, 0.0)


def at_rule(n: int, gamma: float) -> float:
    """The chain total at the tuning rule's bin count."""
    return float(total_bound_curve(n, gamma, 1.0, [choose_m(n, gamma)])[0])


class TestTotalBound:
    def test_links_nonnegative_and_total(self):
        p = RateParams(4096, choose_m(4096, 1.0), 1.0)
        recon = bound_density_reconstruction(p)
        carter = bound_carter_multinomial(p) + bound_carter_independent(p)
        assert recon >= 0.0 and carter >= 0.0
        # density -> multinomial, multinomial -> Gaussian, then two reconstruction links
        assert at_rule(4096, 1.0) == recon + carter + recon + recon

    def test_curve_matches_pointwise(self):
        n, gamma, C_R = 2**14, 0.5, 2.0
        ms = np.array([8, 32, 128])
        curve = total_bound_curve(n, gamma, C_R, ms)
        for m, val in zip(ms, curve):
            p = RateParams(n, int(m), gamma, C_R)
            recon = bound_density_reconstruction(p)
            carter = bound_carter_multinomial(p) + bound_carter_independent(p)
            assert val == recon + carter + recon + recon

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
    def test_totals_decrease_along_the_rule(self, gamma):
        # the m-rule jumps at small n; the tail from 2^11 is monotone
        totals = [at_rule(2**k, gamma) for k in range(11, 21)]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
    def test_rule_near_optimal(self, gamma):
        for k in (10, 14, 18):
            n = 2**k
            _, best = minimize_total(n, gamma)
            assert at_rule(n, gamma) <= 2.0 * best

    def test_ratio_to_target_rate_bounded(self):
        ratios = []
        for k in range(10, 21):
            n = 2**k
            _, best = minimize_total(n, 1.0)
            ratios.append(best / target_rate(n, 1.0))
        assert max(ratios) / min(ratios) <= 4.0


def _full_grid_argmin(n, gamma, C_R):
    m = np.arange(2, max(n, 2) + 1)
    totals = total_bound_curve(n, gamma, C_R, m)
    k = int(np.argmin(totals))
    return int(m[k]), float(totals[k])


def _minimize_cases():
    rng = np.random.default_rng(20)
    ns = list(range(2, 141)) + [int(v) for v in rng.integers(141, 2**21, 40)] + [2**20]
    return [
        (n, float(rng.uniform(0.01, 1.0)), float(10.0 ** rng.uniform(-6.0, 4.0)))
        for n in ns
    ]


class TestMinimizeTotal:
    # n in 2..140 crosses the edges of the final argmin window
    @pytest.mark.parametrize("n, gamma, C_R", _minimize_cases())
    def test_equals_the_full_grid_argmin(self, n, gamma, C_R):
        m, total = minimize_total(n, gamma, C_R)
        want_m, want_total = _full_grid_argmin(n, gamma, C_R)
        assert m == want_m
        assert np.float64(total).tobytes() == np.float64(want_total).tobytes()

    def test_evaluates_logarithmically_many_points(self, monkeypatch):
        points = []

        def counting(n, gamma, C_R, m_values):
            points.append(len(m_values))
            return total_bound_curve(n, gamma, C_R, m_values)

        monkeypatch.setattr(lecam.equivalence, "total_bound_curve", counting)
        minimize_total(2**40, 0.7)
        assert sum(points) <= 2 * 40 + 64

    def test_huge_n_in_bounded_memory(self):
        tracemalloc.start()
        try:
            m, total = minimize_total(2**40, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert 2 < m < 2**40
        before, after = total_bound_curve(2**40, 1.0, 1.0, [m - 1, m + 1])
        assert total < before
        assert total <= after

    # n = 0 used to return (2, inf) with divide-by-zero warnings, n = -4 a bare ValueError
    @pytest.mark.parametrize("n", [0, -4])
    def test_n_below_one_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match="n must be >= 1"):
            minimize_total(n, 0.5)
        with pytest.raises(DomainError, match="n must be >= 1"):
            total_bound_curve(n, 0.5, 1.0, [2, 3])

    def test_n_of_one_is_accepted(self):
        assert minimize_total(1, 0.5) == (2, total_bound_curve(1, 0.5, 1.0, [2])[0])

    # bit for bit: the links are summed in chain order
    @pytest.mark.parametrize(
        "n, gamma, want",
        [
            (10**6, 0.5, (269, 3.13392701356574)),
            (2**40, 1.0, (43416, 0.8329508252391544)),
            (1, 0.5, (2, 5.5076147046795345)),
        ],
    )
    def test_pinned_minimizers(self, n, gamma, want):
        assert minimize_total(n, gamma) == want

    @pytest.mark.parametrize(
        "gamma, C_R",
        [(0.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.nan)],
    )
    def test_out_of_range_parameters_are_domain_errors(self, gamma, C_R):
        with pytest.raises(DomainError):
            minimize_total(100, gamma, C_R)
        with pytest.raises(DomainError):
            total_bound_curve(100, gamma, C_R, [2, 3])

    @pytest.mark.parametrize("m_values", [[1, 2], [math.nan, 4]])
    def test_bin_count_below_two_is_a_domain_error(self, m_values):
        with pytest.raises(DomainError, match="m must be >= 2"):
            total_bound_curve(100, 0.5, 1.0, m_values)


def test_target_rate_branches():
    n = 4096
    assert target_rate(n, 0.5) == pytest.approx(n ** (-0.1) * math.log(n))
    assert target_rate(n, 1.0) == pytest.approx(n ** (-0.1) * math.log(n))
    assert target_rate(n, 0.25) == pytest.approx(n ** (-0.25 / 4.5) * math.log(n))
