import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lecam.experiments

from lecam.densities import affine, cosine, parse_spec, uniform
from lecam.errors import DomainError, UsageError
from lecam.measures import DensityModel
from lecam.experiments import (
    Trajectory,
    increments,
    format_samples,
    load_samples,
    sample_iid,
    sample_white_noise,
    sqrt_cell_means,
    theta_of,
)
from lecam.rng import substream, substream_seq

COSINE = cosine([0.3])


class TestThetaOf:
    def test_uniform_quarters(self):
        th = theta_of(uniform(), 4)
        assert th == pytest.approx([0.25] * 4, abs=1e-14)

    def test_cosine_matches_antiderivative(self):
        # closed-form antiderivative is the oracle
        f = COSINE
        for m in (2, 4, 7):
            th = theta_of(f, m)
            edges = np.arange(m + 1) / m
            expect = np.diff(f.primitive(edges))
            assert th == pytest.approx(expect, abs=1e-12)
        assert theta_of(f, 2)[0] == pytest.approx(0.5, abs=1e-12)

    def test_sums_to_one(self):
        for f in (COSINE, affine(0.8)):
            assert theta_of(f, 13).sum() == pytest.approx(1.0, abs=1e-11)

    def test_class_bounds(self):
        th = theta_of(COSINE, 8)
        assert th.min() >= COSINE.eps / 8 - 1e-9
        assert th.max() <= COSINE.M / 8 + 1e-9

    def test_m_too_small(self):
        with pytest.raises(UsageError):
            theta_of(uniform(), 1)

    def test_returns_the_probability_array(self):
        th = theta_of(COSINE, 8)
        assert isinstance(th, np.ndarray) and th.shape == (8,) and th.dtype == float

    def test_rejects_mass_that_does_not_sum_to_one(self):
        f = DensityModel(
            pdf=lambda x: np.full_like(x, 1.2), gamma=1.0, K=1.0, eps=0.5, M=2.0,
            deriv=np.zeros_like,
        )
        with pytest.raises(DomainError, match="sums to 1.2"):
            theta_of(f, 4)

    def test_rejects_negative_mass_under_a_tiny_lower_bound(self):
        # 4x - 1 integrates to 1 but gives the first of four cells mass -1/8
        f = DensityModel(
            pdf=lambda x: 4.0 * x - 1.0, gamma=1.0, K=1.0, eps=1e-12, M=3.0,
            deriv=lambda x: np.full_like(x, 4.0),
        )
        with pytest.raises(DomainError, match="outside"):
            theta_of(f, 4)


class TestSampleIid:
    def test_empty(self):
        assert sample_iid(uniform(), 0, 1).size == 0

    def test_deterministic_given_seed(self):
        a = sample_iid(COSINE, 100, 42)
        b = sample_iid(COSINE, 100, 42)
        c = sample_iid(COSINE, 100, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_ks_over_seeds(self):
        # KS at the 1% level should reject about 1% of small-sample draws
        rejections = sum(
            stats.kstest(sample_iid(uniform(), 5, substream_seq(1234, s)), "uniform").pvalue
            < 0.01
            for s in range(300)
        )
        assert rejections <= 9

    def test_bin_frequencies_match_theta(self):
        n, m = 10_000, 10
        xs = sample_iid(COSINE, n, 42)
        th = theta_of(COSINE, m)
        freq = np.bincount(np.minimum((xs * m).astype(int), m - 1), minlength=m) / n
        z = (freq - th) / np.sqrt(th * (1.0 - th) / n)
        assert np.abs(z).max() <= 3.0

    def test_envelope_violation_detected(self):
        lying = dataclasses.replace(cosine([0.3]), M=1.1)
        with pytest.raises(DomainError):
            sample_iid(lying, 100, 0)

    def test_binned_draws_multinomial_over_100_seeds(self):
        # GOF of binned draws against n * theta: no rejection at 0.1% in
        # 100 independent runs (n = 1e4, m = 8)
        from lecam.kernels import bin_counts

        n, m = 10_000, 8
        expected = n * theta_of(COSINE, m)
        rejections = 0
        for run in range(100):
            counts = bin_counts(sample_iid(COSINE, n, substream_seq(60, run)), m)
            chi2 = ((counts - expected) ** 2 / expected).sum()
            if stats.chi2.sf(chi2, m - 1) < 0.001:
                rejections += 1
        assert rejections == 0


class TestWhiteNoise:
    def test_starts_at_zero(self):
        traj = sample_white_noise(COSINE, 100, 64, 5)
        assert traj.values[0] == 0.0
        assert traj.times[0] == 0.0
        assert traj.resolution == 64

    def test_rescaled_increments_standard_normal(self):
        n, res, reps = 100, 1000, 20
        pooled = []
        for r in range(reps):
            traj = sample_white_noise(uniform(), n, res, substream_seq(77, r))
            inc = np.diff(traj.values)
            pooled.append((inc - 1.0 / res) * 2.0 * np.sqrt(n) / np.sqrt(1.0 / res))
        z = np.concatenate(pooled)
        assert z.mean() == pytest.approx(0.0, abs=3.0 / np.sqrt(z.size))
        assert z.var(ddof=1) == pytest.approx(1.0, abs=3.0 * np.sqrt(2.0 / (z.size - 1)))
        # disjoint-cell independence: lag-1 autocorrelation is noise-level
        lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
        assert abs(lag1) <= 4.0 / np.sqrt(z.size)

    def test_deterministic_limit(self):
        # at n = 1e8 the noise is ~1e-4, so the path hugs t -> int_0^t sqrt(f)
        traj = sample_white_noise(uniform(), 10**8, 512, 99)
        assert np.abs(traj.values - traj.times).max() < 1e-3

    def test_drift_uses_sqrt_density(self):
        f = COSINE
        traj = sample_white_noise(f, 10**10, 256, 4)
        drift = np.concatenate([[0.0], np.cumsum(sqrt_cell_means(f, 256))])
        assert np.abs(traj.values - drift).max() < 1e-4


class TestIncrements:
    def test_constant_trajectory(self):
        traj = Trajectory(times=np.linspace(0, 1, 9), values=np.zeros(9))
        assert increments(traj, 4) == pytest.approx(np.zeros(4), abs=0.0)

    def test_telescoping(self):
        traj = sample_white_noise(COSINE, 50, 64, 11)
        inc = increments(traj, 8)
        assert inc.sum() == pytest.approx(traj.values[-1] - traj.values[0], abs=1e-12)

    def test_non_divisible_grid(self):
        traj = sample_white_noise(COSINE, 50, 64, 11)
        with pytest.raises(UsageError):
            increments(traj, 7)

    def test_moments_match_model(self):
        # per-coordinate increment means int_{J_i} sqrt(f), variances 1/(4nm)
        n, m, res, reps = 50, 4, 64, 4000
        g = sqrt_cell_means(COSINE, m)
        incs = np.array(
            [
                increments(sample_white_noise(COSINE, n, res, substream_seq(11, r)), m)
                for r in range(reps)
            ]
        )
        z_mean = (incs.mean(axis=0) - g) / (incs.std(axis=0, ddof=1) / np.sqrt(reps))
        var = 1.0 / (4.0 * n * m)
        z_var = (incs.var(axis=0, ddof=1) - var) / (
            incs.var(axis=0, ddof=1) * np.sqrt(2.0 / (reps - 1))
        )
        assert np.abs(z_mean).max() <= 3.0
        assert np.abs(z_var).max() <= 3.0


def percent_reference(values) -> str:
    """The sample-file format as one Python ``%`` pass, the writer's reference."""
    values = np.asarray(values, dtype=float).ravel()
    return ("%.12g\n" * values.size) % tuple(values.tolist())


def neighbours(x: float, steps: int) -> list[float]:
    """x and the ``steps`` doubles on each side of it."""
    out = [x]
    below = above = x
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


def formatted(values) -> str:
    """``format_samples``' chunks joined into one string."""
    return "".join(format_samples(values))


class TestFormatSamples:
    """``format_samples`` equals the ``%`` reference byte for byte."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 1.0)), max_size=40))
    def test_any_floats(self, values):
        # st.floats() includes +-0, subnormals, +-inf and nan
        assert formatted(np.array(values, dtype=float)) == percent_reference(values)

    @pytest.mark.parametrize("z", [0, 1, 2, 3])
    def test_ties(self, z):
        rng = np.random.default_rng(z)
        k = rng.integers(10**11, 10**12, 5000)
        nearest = (k + 0.5) / 10.0 ** (12 + z)  # the doubles next to each tie
        # q / 2^(13+z) times 10^(12+z) is q 5^(12+z) / 2, a tie, for odd q
        q = np.arange(2 ** (13 + z) // 10 ** (z + 1) + 1, 2 ** (13 + z) // 10**z)
        q = q[q % 2 == 1]
        exact = q / 2.0 ** (13 + z)
        assert (exact * 10.0 ** (12 + z) % 1 == 0.5).all()
        for values in (nearest, exact):
            assert formatted(values) == percent_reference(values)

    @pytest.mark.parametrize("edge", [1e-4, 1e-3, 0.01, 0.1, 1.0])
    def test_decade_edges(self, edge):
        values = neighbours(edge, 200)
        assert formatted(np.array(values)) == percent_reference(values)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_sizes(self, extra):
        size = lecam.experiments._CHUNK + extra
        values = np.random.default_rng(size).random(size)
        specials = [0.0, -0.0, 1.0, 1e-5, 2.0, -0.25, np.nan, np.inf]
        values[::1000] = np.resize(specials, values[::1000].size)
        assert formatted(values) == percent_reference(values)

    @pytest.mark.parametrize("size", [0, 1])
    def test_tiny_sizes(self, size):
        values = np.full(size, 0.123456789012345)
        assert formatted(values) == percent_reference(values)

    def test_two_dimensional_input(self):
        values = np.random.default_rng(7).random((300, 3)) ** 3
        assert formatted(values) == percent_reference(values)
        assert formatted(np.asfortranarray(values)) == percent_reference(values)


class TestSerialization:
    def test_samples_roundtrip(self, tmp_path):
        xs = sample_iid(COSINE, 50, 9)
        path = tmp_path / "samples.txt"
        path.write_text(formatted(xs))
        back = load_samples(path)
        assert back == pytest.approx(xs, abs=1e-10)

    def test_samples_format_matches_per_value_fstring(self):
        values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1e300, 123456789012345.0, np.nan, -np.inf]
        assert formatted(np.array(values)) == "".join(f"{v:.12g}\n" for v in values)
        assert formatted(np.array([])) == ""

    def test_samples_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nnot-a-number\n")
        with pytest.raises(UsageError):
            load_samples(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_samples_non_finite(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"0.125\n{bad}\n0.625\n")
        with pytest.raises(UsageError, match="finite"):
            load_samples(path)

    def test_trajectory_grid_checks(self):
        with pytest.raises(UsageError):
            Trajectory(times=np.array([0.0, 0.5, 0.6]), values=np.zeros(3))
        with pytest.raises(UsageError):
            Trajectory(times=np.array([0.1, 0.2, 0.3]), values=np.zeros(3))

    def test_trajectory_rejects_non_finite_values(self):
        with pytest.raises(DomainError, match="finite"):
            Trajectory(times=np.linspace(0, 1, 3), values=np.array([0.0, np.nan, 0.5]))


def _former_cosine_pdf(coeffs):
    a = np.asarray(coeffs, dtype=float)

    def pdf(x):
        out = np.ones_like(x)
        for kk, ak in zip(np.arange(1, a.size + 1, dtype=float), a):
            out += ak * np.cos(2.0 * np.pi * kk * x)
        return out

    return pdf


def _two_uniform_rejection(f, pdf, n, seed):
    """The rejection pass with separate x and u draws; returns (sample, batches)."""
    rng = substream(seed, "iid")
    out = np.empty(n)
    filled = batches = 0
    while filled < n:
        batch = max(int(1.05 * f.M * (n - filled)) + 16, 64)
        x = rng.uniform(size=batch)
        u = rng.uniform(size=batch)
        accepted = x[u * f.M <= pdf(x)]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
        batches += 1
    return out, batches


class TestSampleIidDraws:
    # (spec, seed) pairs whose n = 100 draw needs a second rejection batch
    @pytest.mark.parametrize(
        "spec, pdf, multi_batch_seed",
        [
            ("cosine:0.3", _former_cosine_pdf([0.3]), 1570),
            ("cosine:0.1,-0.2", _former_cosine_pdf([0.1, -0.2]), 1511),
            ("affine:0.5", None, 749),
        ],
    )
    def test_matches_two_uniform_reference(self, spec, pdf, multi_batch_seed):
        f = parse_spec(spec)
        pdf = f.pdf if pdf is None else pdf
        for n, seed in ((100, multi_batch_seed), (5000, 3), (1, 0)):
            want, batches = _two_uniform_rejection(f, pdf, n, seed)
            assert sample_iid(f, n, seed).tobytes() == want.tobytes()
            if n == 100:
                assert batches > 1

    def test_unsizable_envelope_is_a_domain_error(self, monkeypatch):
        # 1.05 * M * n overflows int64 (here to inf): refused before any draw
        huge = dataclasses.replace(COSINE, M=1e308)
        monkeypatch.setattr(
            "lecam.experiments.substream",
            lambda *a: pytest.fail("drew from the stream"),
        )
        with pytest.raises(DomainError, match="too large to size a rejection batch"):
            sample_iid(huge, 10, 1)
        with pytest.raises(DomainError):
            sample_iid(dataclasses.replace(COSINE, M=1e17), 100, 1)
