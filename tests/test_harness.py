import dataclasses
import functools
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import lecam.approx
import lecam.harness
import lecam.kernels

from lecam.cli import main
from lecam.densities import cosine, uniform
from lecam.equivalence import RateParams, bound_density_reconstruction
from lecam.errors import UsageError
from lecam.experiments import sample_iid, theta_of
from lecam.harness import (
    RISK_BLOCK,
    YSTAR_BLOCK,
    CheckReport,
    DecisionProblem,
    merge_moments,
    rate_sweep,
    run_suite,
    sig12,
    theta1_problem,
    verify_risk_transfer,
    verify_sufficiency,
    verify_transport,
    verify_ystar_moments,
)
from lecam.measures import PiecewiseLinearDensity
from test_slice_pool import slice_pool

COSINE = cosine([0.3])


def under_pools(monkeypatch, fn, sizes=(1, 2, 3)):
    """``fn()`` under slice pools of each size in ``sizes``."""
    results = []
    for workers in sizes:
        pool = slice_pool(monkeypatch, workers)
        try:
            results.append(fn())
        finally:
            pool.shutdown()
    return results


class TestSufficiency:
    def test_matching_laws_pass(self):
        for m in (4, 8):
            report = verify_sufficiency(COSINE, n=10_000, m=m, seed=42)
            assert report.passed, report.to_json()

    def test_single_cell_is_a_usage_error(self):
        # one cell leaves nothing to test, as when merging leaves one column
        with pytest.raises(UsageError, match="m >= 2"):
            verify_sufficiency(COSINE, n=100, m=1, seed=0)

    def test_negative_control_has_power(self):
        wrong = theta_of(uniform(), 4)
        report = verify_sufficiency(
            COSINE, n=100_000, m=4, seed=3, theta_override=wrong
        )
        assert not report.passed
        assert report.p_value < 1e-6
        assert report.details["negative_control"]

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_too_few_draws_for_two_cells_is_a_usage_error(self, n):
        # every column merges into one: a chi-square test with 0 dof never runs
        with pytest.raises(UsageError, match=f"n={n}, m=8"):
            verify_sufficiency(COSINE, n=n, m=8, seed=1)


class TestTransport:
    def test_uniform_exact_reconstruction(self):
        report = verify_transport(uniform(), n=10_000, m=8, seed=1)
        assert report.passed

    def test_cosine_matches_reconstruction_cdf(self):
        report = verify_transport(COSINE, n=10_000, m=8, seed=2)
        assert report.passed, report.to_json()

    def test_ks_cdf_is_the_kernels_pushforward(self, monkeypatch):
        # the KS reference is the law the shipped tent kernel pushes forward
        pushed, ks_cdfs = [], []
        real_kernel, real_kstest = lecam.approx.reconstruction_kernel, stats.kstest

        def spy_kernel(m):
            kernel = real_kernel(m)

            def pushforward(law):
                pushed.append(kernel.pushforward_density(law))
                return pushed[-1]

            return dataclasses.replace(kernel, pushforward_density=pushforward)

        def spy_kstest(sample, cdf):
            ks_cdfs.append(cdf)
            return real_kstest(sample, cdf)

        monkeypatch.setattr(lecam.approx, "reconstruction_kernel", spy_kernel)
        monkeypatch.setattr(stats, "kstest", spy_kstest)
        report = verify_transport(COSINE, n=2_000, m=8, seed=2)
        assert report.passed
        assert len(pushed) == 1 and len(ks_cdfs) == 1
        assert ks_cdfs[0].__self__ is pushed[0]
        assert ks_cdfs[0].__func__ is PiecewiseLinearDensity.cdf

    def test_skipping_reconstruction_fails(self):
        report = verify_transport(COSINE, n=10_000, m=8, seed=2, skip_reconstruction=True)
        assert not report.passed
        assert report.p_value < 1e-6


class TestYstarMoments:
    def test_variance_identity_n100(self):
        report = verify_ystar_moments(COSINE, n=100, m=8, replications=10_000, seed=42)
        assert report.passed, report.to_json()
        # the t = 1 variance band is centred on 1 / (4 * 100)
        assert abs(report.details["z_scores"]["var@t=1"]) <= 4.0

    def test_uniform_terminal_mean(self):
        report = verify_ystar_moments(uniform(), n=50, m=4, replications=5_000, seed=7)
        assert report.passed
        # E[y*_1] = int_0^1 sqrt(1) = 1: covered by the mean@t=1 band
        assert abs(report.details["z_scores"]["mean@t=1"]) <= 4.0

    def test_minimal_m(self):
        report = verify_ystar_moments(COSINE, n=25, m=2, replications=5_000, seed=11)
        assert report.passed, report.to_json()

    def test_replication_floor(self):
        with pytest.raises(UsageError):
            verify_ystar_moments(COSINE, n=25, m=4, replications=10, seed=0)


class TestYstarMomentBlocks:
    R = 2 * YSTAR_BLOCK + 345  # the last block is short

    def test_vector_merge_matches_numpy_moments(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(self.R, 5)) @ rng.normal(size=(5, 5)) + 3.0
        moments = []
        for i in range(0, self.R, YSTAR_BLOCK):
            block = rows[i : i + YSTAR_BLOCK]
            dev = block - block.mean(axis=0)
            moments.append((len(block), block.mean(axis=0), dev.T @ dev))
        count, mean, m2 = functools.reduce(merge_moments, moments)
        assert count == self.R
        np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(m2 / (count - 1), np.cov(rows.T), rtol=0, atol=1e-12)

    def test_report_is_the_moments_of_every_replication(self, monkeypatch):
        # a one-worker pool runs the blocks inline, so paths append in block order
        slice_pool(monkeypatch, 1)
        seen = []

        def spy(*args):
            seen.append(lecam.kernels.ystar_values(*args))
            return seen[-1]

        monkeypatch.setattr(lecam.harness, "ystar_values", spy)
        report = verify_ystar_moments(COSINE, n=100, m=4, replications=self.R, seed=9)
        assert len(seen) == 3
        ystar = np.concatenate(seen)  # times 0.25, 0.5, 0.75, 1: the cell edges at m = 4
        incs = np.diff(ystar, axis=1, prepend=0.0)
        z = report.details["z_scores"]
        col = ystar[:, 1]
        want = (col.var(ddof=1) - 0.5 / 400) / (col.var(ddof=1) * math.sqrt(2 / (self.R - 1)))
        assert z["var@t=0.5"] == pytest.approx(want, rel=1e-9)
        cov_se = 1 / (4 * 100 * 4) / math.sqrt(self.R)
        assert z["inc-cov@1,3"] == pytest.approx(np.cov(incs.T)[0, 2] / cov_se, rel=1e-9)

    def test_pool_map_gives_the_serial_report(self, monkeypatch):
        def report():
            return verify_ystar_moments(COSINE, n=100, m=8, replications=self.R, seed=5)

        serial, *pooled = under_pools(monkeypatch, report)
        assert pooled == [serial, serial]

    def test_memory_does_not_grow_with_replications(self, monkeypatch):
        # both sizes fan out on two workers: more than two blocks, three in flight
        pool = slice_pool(monkeypatch, 2)

        def peak(blocks):
            tracemalloc.start()
            try:
                verify_ystar_moments(
                    COSINE, n=100, m=8, replications=blocks * YSTAR_BLOCK, seed=2
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        try:
            small, large = peak(3), peak(12)
        finally:
            pool.shutdown()
        assert large <= 1.5 * small, (small, large)


class TestRiskTransfer:
    def test_uniform_risks_equal(self):
        # f = f_hat exactly: TV budget ~ 0 and both risks agree to MC error
        report = verify_risk_transfer(
            theta1_problem(8), uniform(), n=500, m=8, replications=4_000, seed=5
        )
        assert report.passed
        assert report.details["tv_budget"] <= 1e-6

    def test_cosine_within_budget(self):
        report = verify_risk_transfer(
            theta1_problem(16), COSINE, n=1_000, m=16, replications=4_000, seed=6
        )
        assert report.passed, report.to_json()
        assert report.statistic <= report.details["allowance"]

    def test_losses_are_bounded(self):
        report = verify_risk_transfer(
            theta1_problem(8), COSINE, n=200, m=8, replications=1_000, seed=8
        )
        assert 0.0 <= report.details["risk_target"] <= 1.0
        assert 0.0 <= report.details["risk_source"] <= 1.0

    def test_source_draws_run_through_the_chains_tent_stage(self, monkeypatch):
        # the transferred rule reads exactly what the shipped chain's tent stage draws
        built, drawn, actions = [], [], []
        real_chain = lecam.harness.transport_chain

        def spy_chain(n, m):
            chain = real_chain(n, m)
            built.append((n, m))
            tent = chain.stages[-1]

            def sample(cells, seed):
                drawn.append(tent.sample(cells, seed))
                return drawn[-1]

            stages = chain.stages[:-1] + (dataclasses.replace(tent, sample=sample),)
            return dataclasses.replace(chain, stages=stages)

        base = theta1_problem(8)

        def loss(true_value, acts):
            actions.append(acts)
            return base.loss(true_value, acts)

        # a one-worker pool runs the blocks inline, so the calls append in block order
        slice_pool(monkeypatch, 1)
        monkeypatch.setattr(lecam.harness, "transport_chain", spy_chain)
        verify_risk_transfer(
            DecisionProblem(loss, base.target), COSINE, n=200, m=8,
            replications=2 * RISK_BLOCK, seed=4,
        )
        assert built == [(200, 8)] and len(drawn) == 2
        # per block: the target actions, then the source actions
        assert len(actions) == 4
        for b, rows in enumerate(drawn):
            assert np.array_equal(actions[2 * b + 1], (rows <= 1 / 8).mean(axis=1))


class TestRiskTransferBlocks:
    R = 12 * RISK_BLOCK + 34  # the last block is short

    def test_chan_merge_matches_concatenated_moments(self):
        rng = np.random.default_rng(11)
        losses = rng.uniform(size=self.R) ** 3
        blocks = [
            losses[i : i + RISK_BLOCK] for i in range(0, self.R, RISK_BLOCK)
        ]
        moments = [
            (b.size, b.mean(), ((b - b.mean()) ** 2).sum()) for b in blocks
        ]
        count, mean, m2 = moments[0]
        for other in moments[1:]:
            count, mean, m2 = merge_moments((count, mean, m2), other)
        assert count == self.R
        assert mean == pytest.approx(losses.mean(), abs=1e-12)
        assert math.sqrt(m2 / (count - 1)) == pytest.approx(
            losses.std(ddof=1), abs=1e-12
        )

    def test_report_is_the_moments_of_every_loss(self, monkeypatch):
        # a one-worker pool runs the blocks inline, so losses append in block order
        slice_pool(monkeypatch, 1)
        base = theta1_problem(8)
        seen = []

        def loss(true_value, actions):
            out = base.loss(true_value, actions)
            seen.append(out)
            return out

        problem = DecisionProblem(loss, base.target)
        report = verify_risk_transfer(
            problem, COSINE, n=200, m=8, replications=self.R, seed=4
        )
        blocks = -(-self.R // RISK_BLOCK)
        assert len(seen) == 2 * blocks
        for key, losses in (
            ("risk_target", np.concatenate(seen[0::2])),
            ("risk_source", np.concatenate(seen[1::2])),
        ):
            assert losses.size == self.R
            assert report.details[key] == pytest.approx(losses.mean(), abs=1e-12)
            assert report.details[key + "_se"] == pytest.approx(
                losses.std(ddof=1) / math.sqrt(self.R), abs=1e-12
            )

    def test_pool_map_gives_the_serial_report(self, monkeypatch):
        def report():
            return verify_risk_transfer(
                theta1_problem(8), COSINE, n=200, m=8, replications=self.R, seed=3
            )

        serial, *pooled = under_pools(monkeypatch, report)
        assert pooled == [serial, serial]

    def test_memory_does_not_grow_with_replications(self, monkeypatch):
        # both sizes fan out on two workers: more than two blocks, three in flight
        pool = slice_pool(monkeypatch, 2)

        def peak(blocks):
            tracemalloc.start()
            try:
                verify_risk_transfer(
                    theta1_problem(16), COSINE, n=1_000, m=16,
                    replications=blocks * RISK_BLOCK, seed=2,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        try:
            small, large = peak(3), peak(12)
        finally:
            pool.shutdown()
        assert large <= 1.5 * small, (small, large)

    def test_needs_two_replications(self):
        with pytest.raises(UsageError):
            verify_risk_transfer(theta1_problem(8), COSINE, n=10, m=8, replications=1)


class TestRateSweep:
    def test_uniform_exact_zero(self):
        sweep = rate_sweep(uniform(), 1.0, [2**k for k in range(10, 15)])
        assert sweep.exact_zero
        assert sweep.slope is None
        assert all(row[2] == 0.0 for row in sweep.rows)

    def test_cosine_monotone_and_sloped(self):
        grid = [2**k for k in range(10, 19)]
        sweep = rate_sweep(COSINE, 1.0, grid)
        measured = [row[2] for row in sweep.rows]
        assert all(a > b for a, b in zip(measured, measured[1:]))
        # theory for a smooth member at gamma = 1: 1/2 - (1+gamma)/(2+gamma) = -1/6
        assert sweep.slope == pytest.approx(-1.0 / 6.0, abs=0.2)
        lo, hi = sweep.slope_ci
        assert lo <= sweep.slope <= hi

    def test_bound_column_reproduces_formula(self):
        sweep = rate_sweep(COSINE, 1.0, [1024, 2048, 4096, 8192])
        for n, m, _, bound in sweep.rows:
            assert bound == bound_density_reconstruction(
                RateParams(n=n, m=m, gamma=1.0)
            )

    def test_grid_floor(self):
        with pytest.raises(UsageError):
            rate_sweep(COSINE, 1.0, [1024, 2048, 4096])


class TestSuite:
    def test_deterministic_across_parallelism(self, monkeypatch):
        serial, *threaded = under_pools(
            monkeypatch, lambda: run_suite(COSINE, seed=42, replications=1_000)
        )
        for reports in threaded:
            assert [r.to_json() for r in serial] == [r.to_json() for r in reports]
        assert all(r.passed for r in serial)

    def test_uneven_blocks_deterministic_across_parallelism(self, monkeypatch):
        R = 12 * RISK_BLOCK + 34
        reports = under_pools(
            monkeypatch,
            lambda: [r.to_json() for r in run_suite(COSINE, seed=7, replications=R)],
        )
        assert reports[0] == reports[1] == reports[2]
        assert f"reps={R}]" in reports[0][7]

    def test_negative_controls_fail(self):
        reports = run_suite(COSINE, seed=42, replications=1_000, negative_control=True)
        names = [r.name for r in reports]
        assert any("skip-reconstruction" in n for n in names)
        failing = [r for r in reports if not r.passed]
        assert len(failing) == 2
        assert all(r.details.get("negative_control") for r in failing)

    def test_too_few_replications_exit_2_before_any_draw(self, monkeypatch, capsys):
        # the y* checks need 100 replications; the risk check, which runs
        # first, must not draw before the suite refuses
        drawn = []
        monkeypatch.setattr(lecam.harness, "sample_iid", lambda *args: drawn.append(args))
        assert main(["verify", "--seed", "1", "--reps", "99"]) == 2
        assert "need at least 100 replications" in capsys.readouterr().err
        assert drawn == []

    def test_parallel_guard(self, capsys):
        for degree in ("0", "-1"):
            assert main(["verify", "--seed", "1", "--parallel", degree]) == 2
            assert "parallel degree must be >= 1" in capsys.readouterr().err

    def test_runs_on_the_slice_pool_alone(self, monkeypatch, capsys):
        # --parallel builds no pool of its own: every draw sees at most the
        # calling thread plus the slice pool's workers
        pool = slice_pool(monkeypatch, 2)
        before = threading.active_count()
        seen = []

        def counted(*args, **kwargs):
            seen.append(threading.active_count())
            return sample_iid(*args, **kwargs)

        monkeypatch.setattr(lecam.harness, "sample_iid", counted)
        try:
            argv = ["verify", "--seed", "42", "--reps", "400", "--parallel", "8"]
            assert main(argv) == 0
        finally:
            pool.shutdown()
        capsys.readouterr()
        assert seen and max(seen) <= before + pool._max_workers, (before, max(seen))


class TestReportSerialization:
    def test_sig12_rounding(self):
        assert sig12(0.12345678901234567) == 0.123456789012
        assert sig12({"a": np.float64(1.0) / 3.0})["a"] == 0.333333333333
        assert sig12([np.int64(3), "x"]) == [3, "x"]

    def test_report_json_is_stable(self):
        report = CheckReport(
            name="demo", passed=True, statistic=1.0 / 3.0, p_value=0.5,
            details={"z": np.float64(2.0) / 3.0},
        )
        record = json.loads(report.to_json())
        assert record["statistic"] == 0.333333333333
        assert record["details"]["z"] == 0.666666666667
        assert report.to_json() == report.to_json()
