import bisect
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import lecam.measures
from lecam.densities import cosine
from lecam.errors import DomainError, UsageError
from lecam.experiments import sample_iid, theta_of
from lecam.kernels import (
    MarkovKernel,
    Space,
    TentBasis,
    bin_counts,
    binning_kernel,
    brownian_bridge_paths,
    compose,
    counts_to_midpoint_sample,
    midpoint_kernel,
    product_kernel,
    reconstruction_kernel,
    synthesize_ystar,
    transport_batch,
    transport_chain,
)
from lecam.measures import DiscreteLaw
from lecam.rng import substream_seq

COSINE = cosine([0.3])


def identity_kernel(space):
    """The kernel that returns its input: a test double for products and composites."""
    return MarkovKernel(
        source=space,
        target=space,
        sample=lambda x, seed: x,
        label="identity",
    )


class TestTentBasis:
    def test_m2_shape(self):
        b = TentBasis(2)
        x = np.array([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
        tents = b.mixture(np.eye(2)).pdf(x)
        assert tents[0] == pytest.approx([2, 2, 2, 1, 0, 0], abs=1e-14)
        assert tents[1] == pytest.approx([0, 0, 0, 1, 2, 2], abs=1e-14)
        assert b.cdf_matrix(np.array([1.0]))[0, 0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 8, 17])
    def test_partition_of_unity(self, m):
        b = TentBasis(m)
        x = np.linspace(0.0, 1.0, 1000)
        assert np.abs(b.mixture(np.eye(m)).pdf(x).sum(axis=0) - m).max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_interpolation_property(self, m):
        b = TentBasis(m)
        vals = b.mixture(np.eye(m)).pdf(b.midpoints)
        assert vals == pytest.approx(m * np.eye(m), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_unit_mass(self, m):
        b = TentBasis(m)
        assert b.cdf_matrix(np.array([1.0])) == pytest.approx(
            np.ones((m, 1)), abs=1e-14
        )

    @pytest.mark.parametrize("m", range(2, 65))
    def test_cdf_ends_are_exact(self, m):
        ends = TentBasis(m).cdf_matrix(np.array([-0.5, 0.0, 1.0, 1.5]))
        assert np.array_equal(ends, np.repeat([[0.0, 0.0, 1.0, 1.0]], m, axis=0))

    @pytest.mark.parametrize("m", [2, 8, 16, 64])
    def test_dyadic_cdf_is_exact(self, m):
        # at dyadic m every tent integral on the grid k / (4m) is a dyadic
        # rational, so the float CDF must equal it bit for bit
        b = TentBasis(m)
        t = [Fraction(k, 4 * m) for k in range(4 * m + 1)]
        got = b.cdf_matrix(np.array([float(x) for x in t]))
        assert got.flags.c_contiguous
        knots = [Fraction(0)] + [Fraction(2 * j + 1, 2 * m) for j in range(m)] + [Fraction(1)]
        for j in range(m):
            at = [0] * m
            at[j] = m
            v = [at[0]] + at + [at[-1]]
            cum = [Fraction(0)]
            for i in range(m + 1):
                cum.append(cum[-1] + (knots[i + 1] - knots[i]) * (v[i] + v[i + 1]) / 2)
            want = []
            for x in t:
                i = min(bisect.bisect_right(knots, x) - 1, m)
                dx = x - knots[i]
                slope = (v[i + 1] - v[i]) / (knots[i + 1] - knots[i])
                want.append(float(cum[i] + v[i] * dx + slope * dx * dx / 2))
            assert got[j].tolist() == want

    def test_ppf_cdf_roundtrip(self):
        b = TentBasis(5)
        u = np.linspace(0.001, 0.999, 199)
        for j in range(1, 6):
            x = b.ppf_indexed(np.full(u.shape, j - 1), u)
            assert b.cdf_matrix(x)[j - 1] == pytest.approx(u, abs=1e-12)

    def test_sample_matches_cdf(self):
        b = TentBasis(4)
        rng = np.random.default_rng(5)
        for j in (1, 2, 4):
            draws = b.ppf_indexed(np.full(10_000, j - 1), rng.uniform(size=10_000))
            res = stats.kstest(draws, lambda t: b.cdf_matrix(t)[j - 1])
            assert res.pvalue >= 1e-3

    @pytest.mark.parametrize("m", [2, 3, 5, 16, 64, 257])
    def test_ppf_matches_the_branchwise_formula(self, m):
        # the former three-branch formula, bit for bit, at the edges of u and j
        b = TentBasis(m)
        edges = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0]
        rng = np.random.default_rng(m)
        j = np.concatenate([np.repeat(np.arange(m), len(edges)), rng.integers(0, m, 4000)])
        u = np.concatenate([np.tile(edges, m), rng.random(4000)])
        xs = b.midpoints
        xs_prev = xs[np.clip(j - 1, 0, m - 1)]
        xs_next = xs[np.clip(j + 1, 0, m - 1)]
        want = np.where(
            u <= 0.5, xs_prev + np.sqrt(2.0 * u) / m, xs_next - np.sqrt(2.0 * (1.0 - u)) / m
        )
        want = np.where((j == 0) & (u <= 0.5), u / m, want)
        want = np.where((j == m - 1) & (u > 0.5), xs[j] + (u - 0.5) / m, want)
        assert b.ppf_indexed(j, u).tobytes() == want.tobytes()
        assert b.ppf_indexed(j[:, None], u[:, None]).tobytes() == want.tobytes()
        for k in range(len(edges)):  # scalar inputs give 0-d results
            assert b.ppf_indexed(int(j[k]), float(u[k])).tobytes() == want[k].tobytes()

    def test_m_floor(self):
        with pytest.raises(UsageError):
            TentBasis(1)

    def test_ppf_rejects_float_indices(self):
        # a float index is not truncated to a cell, even when it is integral
        b = TentBasis(4)
        for bad in (np.array([0.9, 2.5]), np.array([0.0, 2.0]), 1.0):
            with pytest.raises(DomainError):
                b.ppf_indexed(bad, [0.5, 0.5])
        for bad in (np.array([4]), np.array([-1])):
            with pytest.raises(UsageError):
                b.ppf_indexed(bad, [0.5])
        j = np.array([0, 3], dtype=np.uint8)
        assert b.ppf_indexed(j, [0.5, 0.5]).tolist() == b.midpoints[[0, 3]].tolist()


class TestBinCounts:
    def test_simple(self):
        assert bin_counts([0.1, 0.2, 0.9], 2) == pytest.approx([2, 1])

    def test_empty(self):
        assert bin_counts([], 4) == pytest.approx(np.zeros(4))

    def test_boundary_point(self):
        assert bin_counts([1.0], 4) == pytest.approx([0, 0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            bin_counts([1.2], 4)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            bin_counts(np.array([[0.5, np.nan]]), 4)

    def test_batched_rows_are_per_row_counts(self):
        xs = np.random.default_rng(2).uniform(size=(2, 3, 50))
        xs[0, 0, :3] = [0.0, 1.0, 0.5]  # both endpoints and a cell edge
        counts = bin_counts(xs, 6)
        assert counts.shape == (2, 3, 6)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(counts[i, j], bin_counts(xs[i, j], 6))

    def test_multinomial_law(self):
        # one-sample GOF of binned draws against n * theta
        n, m = 20_000, 8
        xs = sample_iid(COSINE, n, 31)
        counts = bin_counts(xs, m)
        expected = n * theta_of(COSINE, m)
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(stat, m - 1) >= 1e-3


class TestMidpointSample:
    def test_degenerate_counts(self):
        out = counts_to_midpoint_sample(np.array([3, 0]), 1)
        assert out.dtype == np.uint8 and out.tolist() == [0, 0, 0]

    def test_first_coordinate_marginal(self):
        # first coordinate of the permuted multiset is an X* draw
        m, n, reps = 4, 12, 3000
        theta = theta_of(COSINE, m)
        rng_counts = np.random.default_rng(8)
        firsts = np.empty(reps, dtype=int)
        for r in range(reps):
            counts = rng_counts.multinomial(n, theta)
            firsts[r] = counts_to_midpoint_sample(counts, substream_seq(17, r))[0]
        observed = np.bincount(firsts, minlength=m)
        stat = ((observed - reps * theta) ** 2 / (reps * theta)).sum()
        assert stats.chi2.sf(stat, m - 1) >= 1e-3

    def test_permutation_uniformity(self):
        N = 4000
        firsts = np.array(
            [
                counts_to_midpoint_sample(np.array([1, 1]), substream_seq(5, i))[0]
                for i in range(N)
            ]
        )
        frac = (firsts == 0).mean()
        assert abs(frac - 0.5) <= 3.0 * np.sqrt(0.25 / N)

    def test_batched_rows_hold_their_counts(self):
        counts = np.array([[3, 0, 1], [0, 2, 2]])
        out = counts_to_midpoint_sample(counts, 4)
        assert out.shape == (2, 4)
        for row, c in zip(out, counts):
            assert np.array_equal(np.sort(row), np.repeat(np.arange(3), c))
        with pytest.raises(UsageError):
            counts_to_midpoint_sample(np.array([[1, 1], [1, 2]]), 0)

    def test_bad_counts(self):
        with pytest.raises(UsageError):
            counts_to_midpoint_sample(np.array([1, -1]), 0)
        with pytest.raises(UsageError):
            counts_to_midpoint_sample(np.array([0.5, 0.5]), 0)


class TestReconstructionKernel:
    def test_uniform_pushforward_is_flat(self):
        m = 4
        k = reconstruction_kernel(m)
        law = DiscreteLaw(tuple(enumerate([0.25] * m)))
        fhat = k.pushforward_density(law)
        x = np.linspace(0.0, 1.0, 501)
        assert fhat.pdf(x) == pytest.approx(np.ones_like(x), abs=1e-12)
        assert fhat.cdf(x) == pytest.approx(x, abs=1e-12)

    def test_point_mass_pushforward_is_tent(self):
        m = 4
        b = TentBasis(m)
        k = reconstruction_kernel(m)
        law = DiscreteLaw(((0, 1.0),))
        fhat = k.pushforward_density(law)
        x = np.linspace(0.0, 1.0, 501)
        tent_1 = np.interp(x, [0.0, b.midpoints[0], b.midpoints[1]], [m, m, 0.0])
        assert fhat.pdf(x) == pytest.approx(tent_1, abs=1e-12)

    def test_draws_match_tent_cdf(self):
        m = 4
        b = TentBasis(m)
        k = reconstruction_kernel(m)
        for j in (1, 3):
            draws = k.sample(np.full(10_000, j - 1), substream_seq(3, j))
            res = stats.kstest(draws, lambda t: b.cdf_matrix(t)[j - 1])
            assert res.pvalue >= 1e-3

    def test_rejects_non_midpoint(self):
        # inputs are cell indices: floats are refused, midpoint values included
        k = reconstruction_kernel(4)
        for bad in (np.array([0.3]), np.array([0.125])):
            with pytest.raises(DomainError):
                k.sample(bad, 0)

    @pytest.mark.parametrize("atom", [0.125, 0.5, 4, -1, np.nan])
    def test_pushforward_rejects_non_index_atoms(self, atom):
        k = reconstruction_kernel(4)
        with pytest.raises(DomainError):
            k.pushforward_density(DiscreteLaw(((0, 0.5), (atom, 0.5))))

    def test_parameter_free(self):
        # structural check: no DensityModel hides in the kernel's closure
        k = reconstruction_kernel(8)
        seen = set()

        def walk(fn, depth=0):
            if depth > 4 or not callable(fn) or id(fn) in seen:
                return
            seen.add(id(fn))
            for cell in getattr(fn, "__closure__", None) or ():
                value = cell.cell_contents
                assert not isinstance(value, lecam.measures.DensityModel)
                if callable(value):
                    walk(value, depth + 1)

        walk(k.sample)
        walk(k.pushforward_density)

    def test_chain_is_parameter_free(self):
        chain = transport_chain(16, 4)
        seen = set()

        def walk(fn, depth=0):
            if depth > 5 or not callable(fn) or id(fn) in seen:
                return
            seen.add(id(fn))
            for cell in getattr(fn, "__closure__", None) or ():
                value = cell.cell_contents
                assert not isinstance(value, lecam.measures.DensityModel)
                if callable(value):
                    walk(value, depth + 1)

        walk(chain.sample)
        for stage in chain.stages:
            walk(stage.sample)


class TestSpace:
    def test_chain_stage_spaces(self):
        n, m = 12, 4
        spaces = [(s.source, s.target) for s in transport_chain(n, m).stages]
        assert spaces == [
            (Space("unit-interval", n), Space("counts", 1, m=m, n=n)),
            (Space("counts", 1, m=m, n=n), Space("midpoint", n, m=m)),
            (Space("midpoint", n, m=m), Space("unit-interval", n)),
        ]

    def test_check_width_and_counts_total(self):
        counts = Space("counts", 1, m=3, n=5)
        assert counts.check([[1, 2, 2], [5, 0, 0]]).shape == (2, 3)
        for bad in ([1, 2, 2, 0], [1, 2, 3], 5):
            with pytest.raises(UsageError):
                counts.check(bad)
        points = Space("unit-interval", 3)
        assert points.check([0.1, 0.2, 0.3]).shape == (3,)
        for bad in ([0.1, 0.2], np.zeros((3, 2)), 0.5):
            with pytest.raises(UsageError):
                points.check(bad)

    @pytest.mark.parametrize(
        "kernel, bad",
        [
            (binning_kernel(4, 2), np.full(5, 0.5)),
            (midpoint_kernel(4, 2), np.array([2, 1, 1])),
            (midpoint_kernel(4, 2), np.array([2, 1])),
            (product_kernel(reconstruction_kernel(2), 3), np.zeros(4, dtype=int)),
        ],
        ids=["binning-width", "midpoint-width", "midpoint-total", "product-width"],
    )
    def test_kernels_check_their_source(self, kernel, bad):
        with pytest.raises(UsageError):
            kernel.sample(bad, 0)

    def test_compose_compares_spaces(self):
        # cell counts differ only in m: the spaces differ, so the kernels do not compose
        with pytest.raises(UsageError, match="cannot compose"):
            compose(midpoint_kernel(8, 4), product_kernel(reconstruction_kernel(2), 8))


class TestProductAndCompose:
    def test_identity_product(self):
        space = Space("unit-interval", 1)
        ident = identity_kernel(space)
        prod = product_kernel(ident, 3)
        xs = np.array([0.1, 0.5, 0.9])
        assert prod.sample(xs, 0) == pytest.approx(xs)

    def test_single_component_is_component(self):
        k = reconstruction_kernel(4)
        assert product_kernel(k, 1) is k

    def test_empty_product(self):
        with pytest.raises(UsageError):
            product_kernel(reconstruction_kernel(4), 0)

    def test_arity_mismatch(self):
        k = reconstruction_kernel(4)
        prod = product_kernel(k, 2)
        with pytest.raises(UsageError):
            prod.sample(np.zeros(3, dtype=int), 0)

    def test_iid_product_law(self):
        # n tent kernels applied to i.i.d. X* draws give i.i.d. f_hat draws
        m, n = 4, 10_000
        theta = theta_of(COSINE, m)
        rng = np.random.default_rng(12)
        xs = rng.choice(m, size=n, p=theta)
        k = reconstruction_kernel(m)
        ys = product_kernel(k, n).sample(xs, 77)
        from lecam.approx import reconstruct

        fhat = reconstruct(COSINE, m)
        assert stats.kstest(ys, fhat.cdf).pvalue >= 1e-3

    def test_compose_identity(self):
        m, n = 4, 16
        chain = transport_chain(n, m)
        ident = identity_kernel(chain.source)
        both = compose(ident, chain)
        xs = sample_iid(COSINE, n, 3)
        # stage lists differ, so compare laws via matching flattened stages
        assert both.stages[1:] == chain.stages or both.stages[0].label == "identity"

    def test_compose_space_mismatch(self):
        with pytest.raises(UsageError):
            compose(binning_kernel(10, 4), binning_kernel(10, 4))

    def test_compose_associative_on_samples(self):
        n, m = 32, 4
        k1, k2 = binning_kernel(n, m), midpoint_kernel(n, m)
        k3 = product_kernel(reconstruction_kernel(m), n)
        left = compose(compose(k1, k2), k3)
        right = compose(k1, compose(k2, k3))
        xs = sample_iid(COSINE, n, 5)
        assert left.sample(xs, 99) == pytest.approx(right.sample(xs, 99))

    def test_chain_endpoints(self):
        chain = transport_chain(100, 8)
        assert chain.source == Space("unit-interval", 100)
        assert chain.target == Space("unit-interval", 100)

    def test_chain_matches_reconstruction_law(self):
        from lecam.approx import reconstruct

        n, m = 10_000, 8
        xs = sample_iid(COSINE, n, 21)
        ys = transport_chain(n, m).sample(xs, 22)
        fhat = reconstruct(COSINE, m)
        assert stats.kstest(ys, fhat.cdf).pvalue >= 1e-3

    def test_transport_batch_same_law(self):
        from lecam.approx import reconstruct

        n, m = 10_000, 8
        xs = sample_iid(COSINE, n, 23)
        ys = transport_batch(xs, m, 24)
        fhat = reconstruct(COSINE, m)
        assert stats.kstest(ys, fhat.cdf).pvalue >= 1e-3


class TestBridges:
    def test_pinned_at_endpoints(self):
        u = np.array([[0.0, 0.5, 1.0]])
        paths = brownian_bridge_paths(u, np.random.default_rng(0), 100)
        assert np.abs(paths[:, 0, 0]).max() == 0.0
        assert np.abs(paths[:, 0, 2]).max() == 0.0

    def test_variance_function(self):
        u = np.array([[0.2, 0.5, 0.8]])
        paths = brownian_bridge_paths(u, np.random.default_rng(1), 200_000)
        var = paths.var(axis=0)[0]
        expect = u[0] * (1.0 - u[0])
        band = 4.0 * expect * np.sqrt(2.0 / 199_999)
        assert (np.abs(var - expect) <= band).all()

    def test_covariance_function(self):
        # Cov(B(s), B(t)) = s (1 - t) for s <= t; the band is 4 SE of a sample covariance
        u = np.array([[0.2, 0.5, 0.8]])
        R = 200_000
        paths = brownian_bridge_paths(u, np.random.default_rng(2), R)[:, 0, :]
        cov = np.cov(paths, rowvar=False)
        s, t = np.meshgrid(u[0], u[0], indexing="ij")
        expect = np.minimum(s, t) - s * t
        var = np.diag(expect)
        band = 4.0 * np.sqrt((np.outer(var, var) + expect**2) / (R - 1))
        assert (np.abs(cov - expect) <= band).all()

    def test_monotone_times_required(self):
        with pytest.raises(UsageError):
            brownian_bridge_paths(np.array([[0.5, 0.2]]), np.random.default_rng(0), 1)

    def test_range_check(self):
        with pytest.raises(DomainError):
            brownian_bridge_paths(np.array([[0.0, 1.5]]), np.random.default_rng(0), 1)

    def test_nan_times_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            brownian_bridge_paths(np.array([[0.25, np.nan]]), np.random.default_rng(0), 1)


class TestSynthesizeYstar:
    def test_terminal_value_is_increment_sum(self):
        # bridges vanish at t = 1, so y*_1 equals the increment total exactly
        inc = np.array([0.1, -0.2, 0.3, 0.05])
        traj = synthesize_ystar(inc, n=50, seed=7, grid_resolution=64)
        assert traj.values[-1] == pytest.approx(inc.sum(), abs=1e-12)
        assert traj.values[0] == 0.0

    def test_zero_increments_zero_mean_path(self):
        inc = np.zeros(4)
        traj = synthesize_ystar(inc, n=50, seed=7, grid_resolution=64)
        assert traj.values[-1] == pytest.approx(0.0, abs=1e-12)
        # only the centered bridge part remains
        assert np.abs(traj.values).max() < 1.0

    def test_deterministic(self):
        inc = np.array([0.2, 0.2, 0.2, 0.2])
        a = synthesize_ystar(inc, 25, 3, 64)
        b = synthesize_ystar(inc, 25, 3, 64)
        assert np.array_equal(a.values, b.values)

    def test_usage_guards(self):
        with pytest.raises(UsageError):
            synthesize_ystar(np.array([0.5]), 10, 0, 64)
        with pytest.raises(UsageError):
            synthesize_ystar(np.zeros(8), 10, 0, 4)

    def test_nan_increment_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            synthesize_ystar(np.array([0.5, np.nan]), 10, 1, 4)

    def test_variance_where_two_bridges_overlap(self):
        # fixed increments leave only the bridges: Var(y*_t) = sum_i U_i(t) (1 - U_i(t))
        # / (4nm), checked between tent midpoints, where two tents' CDFs both move
        inc = np.array([0.3, 0.2, 0.1, 0.4])
        n, m, res, R = 50, 4, 16, 3_000
        ys = np.array(
            [synthesize_ystar(inc, n, substream_seq(11, r), res).values for r in range(R)]
        )
        t = np.arange(res + 1) / res
        basis = TentBasis(m)
        U = basis.cdf_matrix(t)
        mids = basis.midpoints
        seam = (t > mids[0]) & (t < mids[-1]) & ~np.isin(t, mids)
        expect = (U * (1.0 - U)).sum(axis=0)[seam] / (4.0 * n * m)
        var = ys.var(axis=0, ddof=1)[seam]
        assert seam.sum() == 9
        assert (np.abs(var - expect) <= 4.0 * expect * np.sqrt(2.0 / (R - 1))).all()

    def test_full_trajectory_chain_variance(self):
        # honest chain: white-noise trajectory -> increments -> reassembled y*,
        # checking Var[y*_t] = t / (4n) at t in {1/2, 1}
        from lecam.experiments import increments, sample_white_noise

        n, m, reps = 25, 4, 400
        res = 64 * m  # 64 grid cells per bin keep the drift quadrature error far below the noise
        half, full = np.empty(reps), np.empty(reps)
        for r in range(reps):
            traj = sample_white_noise(COSINE, n, res, substream_seq(400, r, "wn"))
            ystar = synthesize_ystar(
                increments(traj, m), n, substream_seq(400, r, "y*"), res
            )
            half[r] = ystar.values[res // 2]
            full[r] = ystar.values[-1]
        for t, col in ((0.5, half), (1.0, full)):
            var = col.var(ddof=1)
            band = 4.0 * var * np.sqrt(2.0 / (reps - 1))
            assert abs(var - t / (4.0 * n)) <= band


def test_markov_kernel_is_frozen():
    k = identity_kernel(Space("unit-interval", 1))
    with pytest.raises(AttributeError):
        k.label = "other"
    assert isinstance(k, MarkovKernel)
