import dataclasses

import numpy as np
import pytest
from scipy import stats

from lecam.densities import affine, cosine, uniform
from lecam.errors import DomainError, UsageError
from lecam.experiments import (
    ThetaVector,
    Trajectory,
    increments,
    format_samples,
    load_samples,
    sample_iid,
    sample_white_noise,
    save_samples,
    sqrt_cell_means,
    theta_of,
)
from lecam.rng import substream_seq

COSINE = cosine([0.3])


class TestThetaOf:
    def test_uniform_quarters(self):
        th = theta_of(uniform(), 4).theta
        assert th == pytest.approx([0.25] * 4, abs=1e-14)

    def test_cosine_matches_antiderivative(self):
        # closed-form antiderivative is the oracle
        f = COSINE
        for m in (2, 4, 7):
            th = theta_of(f, m).theta
            edges = np.arange(m + 1) / m
            expect = np.diff(f.primitive(edges))
            assert th == pytest.approx(expect, abs=1e-12)
        assert theta_of(f, 2).theta[0] == pytest.approx(0.5, abs=1e-12)

    def test_sums_to_one(self):
        for f in (COSINE, affine(0.8)):
            assert theta_of(f, 13).theta.sum() == pytest.approx(1.0, abs=1e-11)

    def test_class_bounds(self):
        th = theta_of(COSINE, 8).theta
        assert th.min() >= COSINE.eps / 8 - 1e-9
        assert th.max() <= COSINE.M / 8 + 1e-9

    def test_m_too_small(self):
        with pytest.raises(UsageError):
            theta_of(uniform(), 1)

    def test_theta_vector_validation(self):
        with pytest.raises(DomainError):
            ThetaVector(theta=np.array([0.6, 0.6]))
        with pytest.raises(DomainError):
            ThetaVector(theta=np.array([-0.1, 1.1]))


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
        th = theta_of(COSINE, m).theta
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
        expected = n * theta_of(COSINE, m).theta
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


class TestSerialization:
    def test_trajectory_roundtrip(self, tmp_path):
        traj = sample_white_noise(COSINE, 100, 32, 3)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert back.times == pytest.approx(traj.times, abs=1e-12)
        assert back.values == pytest.approx(traj.values, abs=1e-10)

    def test_trajectory_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n")
        with pytest.raises(UsageError):
            Trajectory.from_csv(path)

    def test_samples_roundtrip(self, tmp_path):
        xs = sample_iid(COSINE, 50, 9)
        path = tmp_path / "samples.txt"
        save_samples(path, xs)
        back = load_samples(path)
        assert back == pytest.approx(xs, abs=1e-10)

    def test_samples_format_matches_per_value_fstring(self):
        values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1e300, 123456789012345.0, np.nan, -np.inf]
        assert format_samples(np.array(values)) == "".join(f"{v:.12g}\n" for v in values)
        assert format_samples(np.array([])) == ""

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
