import dataclasses
import math

import numpy as np
import pytest

from lecam.approx import (
    ErrorBreakdown,
    hellinger_bound,
    hellinger_sq,
    l2_error_sq,
    reconstruct,
    remainder_sup,
)
from lecam.densities import affine, cosine, uniform
from lecam.errors import NumericalError, UsageError
from lecam.experiments import theta_of
from lecam.kernels import TentBasis, reconstruction_kernel
from lecam.measures import DensityModel, DiscreteLaw, PiecewiseLinearDensity
from lecam.quadrature import integrate

COSINE = cosine([0.3])


def quadratic_member():
    # f(x) = x^2 + 2/3: eps = 2/3, M = 5/3, f' = 2x so K = 2 works at gamma = 1
    return DensityModel(
        pdf=lambda x: np.asarray(x, dtype=float) ** 2 + 2.0 / 3.0,
        gamma=1.0,
        K=2.0,
        eps=2.0 / 3.0,
        M=5.0 / 3.0,
        deriv=lambda x: 2.0 * np.asarray(x, dtype=float),
        name="quadratic",
    )


def random_members(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        coeffs = rng.uniform(-0.5, 0.5, size=3)
        yield cosine(coeffs)


class TestReconstruct:
    def test_uniform_is_exact(self):
        fhat = reconstruct(uniform(), 8)
        x = np.linspace(0.0, 1.0, 257)
        assert fhat.pdf(x) == pytest.approx(np.ones_like(x), abs=1e-14)
        assert fhat.integral() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_interpolation_property(self, m):
        theta = theta_of(COSINE, m)
        fhat = reconstruct(COSINE, m)
        mids = TentBasis(m).midpoints
        assert fhat.pdf(mids) == pytest.approx(m * theta, abs=1e-13)

    def test_matches_tent_combination(self):
        m = 6
        theta = theta_of(COSINE, m)
        fhat = reconstruct(COSINE, m)
        x = np.linspace(0.0, 1.0, 401)
        combo = theta @ TentBasis(m).mixture(np.eye(m)).pdf(x)
        assert fhat.pdf(x) == pytest.approx(combo, abs=1e-12)

    def test_is_the_tent_kernels_pushforward(self):
        m = 8
        theta = theta_of(COSINE, m)
        law = DiscreteLaw(tuple(enumerate(theta)))
        pushed = reconstruction_kernel(m).pushforward_density(law)
        fhat = reconstruct(COSINE, m)
        assert isinstance(fhat, PiecewiseLinearDensity)
        assert np.array_equal(fhat.knots, pushed.knots)
        assert np.array_equal(fhat.values, pushed.values)

    def test_affine_reproduced_between_first_and_last_midpoint(self):
        f = affine(0.5)
        for m in (4, 8):
            fhat = reconstruct(f, m)
            x = np.linspace(1.0 / (2.0 * m), 1.0 - 1.0 / (2.0 * m), 101)
            assert fhat.pdf(x) == pytest.approx(f.pdf(x), abs=1e-12)

    def test_linearity_in_the_density(self):
        alpha = 0.3
        f, g = COSINE, affine(0.5)
        mix = DensityModel(
            pdf=lambda x: alpha * f.pdf(x) + (1 - alpha) * g.pdf(x),
            gamma=1.0,
            K=alpha * f.K + (1 - alpha) * g.K,
            eps=alpha * f.eps + (1 - alpha) * g.eps,
            M=alpha * f.M + (1 - alpha) * g.M,
            deriv=lambda x: alpha * f.deriv(x) + (1 - alpha) * g.deriv(x),
            name="mix",
        )
        m = 8
        mixed = reconstruct(mix, m)
        expect = alpha * reconstruct(f, m).values + (1 - alpha) * reconstruct(g, m).values
        assert mixed.values == pytest.approx(expect, abs=1e-12)

    def test_cdf_is_exact(self):
        fhat = reconstruct(COSINE, 4)
        for xi in (0.2, 0.55, 0.9):
            val, _ = integrate(fhat.pdf, 0.0, xi, knots=fhat.knots, tol=1e-12)
            assert fhat.cdf(np.array([xi]))[0] == pytest.approx(val, abs=1e-10)
        assert fhat.cdf(np.array([0.0]))[0] == 0.0
        assert fhat.cdf(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)


class TestL2Error:
    def test_uniform_zero(self):
        assert l2_error_sq(uniform(), 8) <= 1e-20

    def test_affine_exact_value(self):
        # boundary caps are the only error: a^2 / (12 m^3) in total
        a = 0.5
        f = affine(a)
        for m in (8, 64):
            assert l2_error_sq(f, m) == pytest.approx(a**2 / (12.0 * m**3), rel=1e-9)

    def test_boundary_contribution_oracle(self):
        # the flat left cap [0, 1/2m] carries half of the affine error
        a = 0.5
        f = affine(a)
        for m in (8, 32, 128):
            fhat = reconstruct(f, m)
            got, _ = integrate(
                lambda x: (f.pdf(x) - fhat.pdf(x)) ** 2, 0.0, 1.0 / (2.0 * m), tol=1e-14
            )
            assert got == pytest.approx(a**2 / (24.0 * m**3), rel=1e-9)

    def test_cosine_slope_near_minus_four(self):
        # interior term dominates for cosine members (f'(0) = 0): -(2g+2) = -4
        ms = np.array([8, 16, 32, 64, 128])
        vals = np.array([l2_error_sq(COSINE, int(m)) for m in ms])
        slope = np.polyfit(np.log(ms), np.log(vals), 1)[0]
        assert -4.3 <= slope <= -3.7

    def test_monotone_in_m(self):
        vals = [l2_error_sq(COSINE, m) for m in (8, 16, 32, 64, 128)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestHellingerBound:
    def test_uniform_all_zero(self):
        eb = hellinger_bound(uniform(), 8)
        assert eb.l2_sq <= 1e-20
        assert eb.hellinger_sq <= 1e-12

    @pytest.mark.parametrize("m", [4, 8, 32])
    def test_direct_below_bound(self, m):
        for f in (COSINE, affine(0.8), quadratic_member()):
            eb = hellinger_bound(f, m)
            assert eb.hellinger_sq <= eb.hellinger_sq_bound + 1e-9

    def test_scaled_hellinger_bounded_at_tuned_n(self):
        # sqrt(n) H(f, f_hat) stays bounded when n = m^(2+gamma)
        vals = []
        for m in (8, 16, 32, 64, 128):
            h_sq = hellinger_bound(COSINE, m).hellinger_sq
            vals.append(math.sqrt(m**3) * math.sqrt(h_sq))
        assert max(vals) <= 1.0
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("f", [COSINE, affine(0.8)], ids=["cosine", "affine"])
    def test_hellinger_sq_is_the_breakdowns_h2(self, f):
        # the sweeps and the risk budget read this value with no L2 quadrature
        for m in (4, 16):
            assert hellinger_sq(f, m) == hellinger_bound(f, m).hellinger_sq

    def test_breakdown_invariant(self):
        # H^2 above its L2 bound is an internal inconsistency: exit 3, not a usage error
        with pytest.raises(NumericalError):
            ErrorBreakdown(
                l2_sq=1e-4, hellinger_sq=1.0, hellinger_sq_bound=1e-4
            )


class TestRemainder:
    def test_affine_zero(self):
        f = affine(0.9)
        for i in (2, 5):
            assert remainder_sup(f, 8, i) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_exact(self):
        # |R_i(x)| = (x - x_i*)^2, so the sup is (1/2m)^2
        f = quadratic_member()
        for m in (4, 16):
            for i in (2, m - 1):
                got = remainder_sup(f, m, i)
                assert got == pytest.approx(1.0 / (4.0 * m**2), rel=1e-2)
                assert got <= f.K * m**-2

    @pytest.mark.parametrize("gamma", [1.0, 0.7])
    def test_taylor_bound_on_random_members(self, gamma):
        for f in random_members(5, seed=int(10 * gamma)):
            f = dataclasses.replace(f, gamma=gamma)
            for m in (4, 16):
                for i in range(2, m):
                    assert remainder_sup(f, m, i) <= f.K * m ** -(1.0 + gamma) + 1e-12

    def test_index_guard(self):
        with pytest.raises(UsageError):
            remainder_sup(COSINE, 8, 0)
        with pytest.raises(UsageError):
            remainder_sup(COSINE, 8, 9)
