import argparse
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import lecam.approx
import lecam.cli
import lecam.densities
import lecam.harness
import lecam.kernels
import lecam.measures
import lecam.quadrature
from lecam.cli import main
from lecam.densities import cosine
from lecam.experiments import format_samples, load_samples, sample_iid
from lecam.harness import verify_transport
from lecam.kernels import bin_counts, transport_chain
from lecam.measures import NormalSpec
from lecam.rng import substream_seq


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(argv, capsys):
    """``run``, with argparse's SystemExit read as the exit code."""
    try:
        return run(argv, capsys)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


class TestDistance:
    def test_normal_closed_form(self, capsys):
        code, out, _ = run(
            ["distance", "--normal", "0,1", "--normal", "1,1", "--metric", "hellinger-sq"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "closed_form"
        assert record["value"] == pytest.approx(2.0 * (1.0 - math.exp(-0.125)), abs=1e-9)

    def test_same_spec_twice_is_zero(self, capsys):
        code, out, _ = run(
            ["distance", "--normal", "1.5,2", "--normal", "1.5,2"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_tv_matches_gaussian_cdf_oracle(self, capsys):
        # TV(N(0,1), N(1,1)) = 2 Phi(1/2) - 1
        from scipy.stats import norm

        code, out, _ = run(
            ["distance", "--normal", "0,1", "--normal", "1,1", "--metric", "tv"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0 * norm.cdf(0.5) - 1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "a, b",
        [((0.0, 1.0), (0.0, 4.0)), ((0.0, 1e-6), (1.0, 1.0)), ((0.3, 0.5), (-0.2, 2.0))],
    )
    def test_unequal_variance_tv_matches_cdf_oracle(self, a, b, capsys):
        # the narrower law has the excess mass exactly between the crossings
        from scipy.stats import norm

        from scipy.optimize import brentq

        narrow, wide = sorted((NormalSpec(*a), NormalSpec(*b)), key=lambda s: s.variance)

        def log_ratio(x):  # log of narrow / wide; positive at the narrow mean
            return (
                (x - wide.mean) ** 2 / (2.0 * wide.variance)
                - (x - narrow.mean) ** 2 / (2.0 * narrow.variance)
                + 0.5 * math.log(wide.variance / narrow.variance)
            )

        far = 50.0 * math.sqrt(wide.variance) + abs(wide.mean - narrow.mean)
        lo = brentq(log_ratio, narrow.mean - far, narrow.mean, xtol=1e-15)
        hi = brentq(log_ratio, narrow.mean, narrow.mean + far, xtol=1e-15)

        def mass(s):
            sd = math.sqrt(s.variance)
            return norm.cdf(hi, s.mean, sd) - norm.cdf(lo, s.mean, sd)

        code, out, _ = run(
            ["distance", f"--normal={a[0]},{a[1]}", f"--normal={b[0]},{b[1]}",
             "--metric", "tv"],
            capsys,
        )
        assert code == 0
        exact = mass(narrow) - mass(wide)
        assert json.loads(out)["value"] == pytest.approx(exact, abs=1e-9)

    def test_density_pair(self, capsys):
        code, out, _ = run(
            ["distance", "--density", "uniform", "--density", "cosine:0.3"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "quadrature"
        assert 0.0 < record["value"] < 2.0

    # SHA-256 of stdout for the two density-pair distances of the benchmark's
    # bounds workload (its seed-1 amplitudes), recorded before sweeps read H^2 alone
    PINNED = {
        ("cosine:0.101407", "cosine:0.320491", "tv"): (
            "0de0b0ce9f199990f04e55ea61bed2a9ea2252f9ef2c0ddb9080b14ccf1be996"
        ),
        ("cosine:0.101407", "cosine:0.320491", "l1"): (
            "690d99917f9eeb0370994836ad18f1a62a7019077766727c9829bd2f1a53a732"
        ),
        ("cosine:0.101407", "cosine:0.320491", "l2"): (
            "d784153a0d19afaf1acd94e8bf961f2c86653289e85ade03454bf77e6512cb72"
        ),
        ("cosine:0.101407", "cosine:0.320491", "hellinger"): (
            "e4494d8595a51d1aabb3dc382241cce46a71b2afcc21d0ebbd586c855d760b48"
        ),
        ("cosine:0.101407", "cosine:0.320491", "hellinger-sq"): (
            "387abb5601725384d741e81d30f7f5ce9efd9ce92ace95d7e07e0e5754c31686"
        ),
        ("affine:0.482382", "uniform", "tv"): (
            "b5c398290f8731989ae7573d93823c9c4e0ab2162eea58c8b41a7b80d9e5b4e3"
        ),
        ("affine:0.482382", "uniform", "l1"): (
            "9c78d59fed18d72303b75054af52c752b8da76c05709fd8528f4bb152be4f9ed"
        ),
        ("affine:0.482382", "uniform", "l2"): (
            "c3bce9edcfa43e506794aafc1d471845612ac3a6f578a815212988a63eafa662"
        ),
        ("affine:0.482382", "uniform", "hellinger"): (
            "25ac4fa83e00342d3fb964dcda0fe124242f217af3198fd38529d6d27d45c4cd"
        ),
        ("affine:0.482382", "uniform", "hellinger-sq"): (
            "d43a11f71caf7d62d47698de083b42d278f141175f19642bc703c01c58cced06"
        ),
    }

    @pytest.mark.parametrize("fa, fb, metric", sorted(PINNED))
    def test_density_pair_bytes_are_pinned(self, fa, fb, metric, capsys):
        argv = ["distance", "--density", fa, "--density", fb, "--metric", metric]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[fa, fb, metric]

    @pytest.mark.parametrize("metric", ["tv", "hellinger", "hellinger-sq", "l1", "l2"])
    def test_normal_pairs_never_integrate(self, metric, monkeypatch, capsys):
        calls = []

        def spy(name, original):
            def recorded(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return recorded

        for module in (lecam.cli, lecam.measures, lecam.quadrature):
            for name in ("integrate", "hellinger_sq_quadrature"):
                if hasattr(module, name):
                    spied = spy(f"{module.__name__}.{name}", getattr(module, name))
                    monkeypatch.setattr(module, name, spied)
        code, out, _ = run(
            ["distance", "--normal=0.3,1e-4", "--normal=-0.4,2", "--metric", metric], capsys
        )
        assert (code, calls) == (0, [])
        assert json.loads(out)["method"] == "closed_form"
        # the same spies do see the density route
        argv = ["distance", "--density", "uniform", "--density", "cosine:0.3", "--metric", metric]
        assert run(argv, capsys)[0] == 0 and calls

    @pytest.mark.parametrize(
        "a, b, metric, want",
        [
            ("0,1", "0,1.000000001", "hellinger-sq", 1.2500002056e-19),
            ("0,1e200", "1e200,1", "l2", 1.0 / (2.0 * math.sqrt(math.pi))),
            ("0,1e-300", "0,1e300", "tv", 1.0),
        ],
    )
    def test_extreme_normal_pairs_print_a_value(self, a, b, metric, want, capsys):
        # once 0.0 for a true 1.25e-19, an OverflowError (exit 1) and exit 3
        code, out, _ = run(["distance", f"--normal={a}", f"--normal={b}", "--metric", metric],
                           capsys)
        assert code == 0
        record = json.loads(out)
        assert abs(record["value"] - want) <= record["abs_error"] + 1e-11 * want

    def test_near_identical_h2_within_printed_error(self, capsys):
        import mpmath as mp

        rng = np.random.default_rng(11)
        for _ in range(100):
            m, v = float(rng.uniform(-5, 5)), float(10.0 ** rng.uniform(-3, 3))
            mb = m + math.sqrt(v) * float(rng.uniform(-1e-6, 1e-6))
            vb = v * (1.0 + float(rng.uniform(-1e-6, 1e-6)))
            code, out, _ = run(["distance", f"--normal={m!r},{v!r}", f"--normal={mb!r},{vb!r}",
                                "--metric", "hellinger-sq"], capsys)
            assert code == 0
            record = json.loads(out)
            with mp.workdps(50):
                ma, va, mbb, vbb = (mp.mpf(x) for x in (m, v, mb, vb))
                s = va + vbb
                g = mp.sqrt(2 * mp.sqrt(va * vbb) / s)
                ref = float(2 * ((1 - g) - g * mp.expm1(-(mbb - ma) ** 2 / (4 * s))))
            assert abs(record["value"] - ref) <= record["abs_error"] + 1e-11 * ref

    def test_invalid_variance_exits_2(self, capsys):
        code, _, err = run(["distance", "--normal", "0,1", "--normal", "0,-1"], capsys)
        assert code == 2
        assert "variance" in err

    @pytest.mark.parametrize("metric", ["hellinger-sq", "tv"])
    @pytest.mark.parametrize("spec", ["nan,1", "inf,1", "0,inf", "0,nan"])
    def test_non_finite_normal_exits_2(self, spec, metric, capsys):
        code, out, err = run(
            ["distance", f"--normal={spec}", "--normal=1,1", "--metric", metric], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.json"
        argv = ["distance", "--normal", "0,1", "--normal", "1,1", "--out", str(out)]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_needs_exactly_two_specs(self, capsys):
        code, _, _ = run(["distance", "--normal", "0,1"], capsys)
        assert code == 2
        code, _, _ = run(
            ["distance", "--normal", "0,1", "--density", "uniform"], capsys
        )
        assert code == 2

    def test_unknown_density_lists_catalog(self, capsys):
        code, _, err = run(
            ["distance", "--density", "nope:1", "--density", "uniform"], capsys
        )
        assert code == 2
        assert "uniform" in err


class TestSweep:
    # SHA-256 of stdout for the benchmark's sweeps, recorded before sweeps
    # read H^2 alone
    PINNED = {
        ("cosine:0.3", "csv"): "9a3f1e8587006093c78a024382d1ac81bfa1ad39ebfef5e747c15368bb914416",
        ("cosine:0.3", "json"): "723ab3ff3d6b51e1737caf94790c737e51db9b79752478955685bdc9674fb87f",
        ("affine:0.5", "csv"): "06f1390709ce959bd5a185a9f1a949d85531b23da6e62a6e2b0fb21d6262dc03",
        ("affine:0.5", "json"): "feb4b89cb2f7fcf837049e1ca8f6babb87119af022ebebc2f274b150084f38d5",
    }

    @pytest.mark.parametrize("spec, fmt", sorted(PINNED))
    def test_output_bytes_are_pinned(self, spec, fmt, capsys):
        argv = [
            "sweep", "--density", spec, "--n-grid", "1024,4096,16384,65536",
            "--seed", "7", "--format", fmt,
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[spec, fmt]

    def test_sweeps_and_risk_budget_skip_the_l2_quadrature(self, monkeypatch, capsys):
        calls = []
        real = lecam.approx.l2_error_sq

        def spy(f, m, *rest, **kwargs):
            calls.append(m)
            return real(f, m, *rest, **kwargs)

        monkeypatch.setattr(lecam.approx, "l2_error_sq", spy)
        argv = ["sweep", "--density", "cosine:0.3", "--n-grid", "1024,4096,16384,65536", "--seed", "7"]
        assert run(argv, capsys)[0] == 0
        lecam.harness.verify_risk_transfer(
            lecam.harness.theta1_problem(8), cosine([0.3]), n=100, m=8, replications=200, seed=1
        )
        assert calls == []
        lecam.approx.hellinger_bound(cosine([0.3]), 8)
        assert calls == [8]

    def test_uniform_csv_is_byte_exact(self, capsys):
        argv = [
            "sweep", "--density", "uniform",
            "--n-grid", "1024,2048,4096,8192", "--seed", "7",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        expected = (
            "n,m,measured,bound,ratio\n"
            "1024,10,0,1.33192885125,0\n"
            "2048,12,0,1.40293178843,0\n"
            "4096,16,0,1.25,0\n"
            "8192,20,0,1.23820302123,0\n"
        )
        assert out == expected

    def test_json_format_reports_slope(self, capsys):
        argv = [
            "sweep", "--density", "cosine:0.3",
            "--n-grid", "1024,4096,16384,65536", "--seed", "7", "--format", "json",
        ]
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert not payload["exact_zero"]
        assert payload["slope"] < 0.0
        assert len(payload["rows"]) == 4

    def test_small_grid_rejected(self, capsys):
        code, _, _ = run(
            ["sweep", "--n-grid", "1024,2048", "--seed", "7"], capsys
        )
        assert code == 2

    def test_seed_is_optional_and_changes_nothing(self, capsys):
        # a sweep draws nothing; --seed stays accepted for old command lines
        argv = ["sweep", "--n-grid", "1024,4096,16384,65536", "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert run(argv + ["--seed", "7"], capsys) == (0, out, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED["cosine:0.3", "json"]

    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        import lecam.cli as cli_mod
        from lecam.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("quadrature blew past the panel cap")

        monkeypatch.setattr(cli_mod, "rate_sweep", boom)
        code, _, err = run(
            ["sweep", "--n-grid", "1024,2048,4096,8192", "--seed", "7"], capsys
        )
        assert code == 3
        assert "numerical failure" in err

    def test_one_distinct_size_exits_2(self, capsys):
        # the slope's standard error divides by the spread of log n, here 0
        code, out, err = run(["sweep", "--n-grid", "16,16,16,16", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: rate sweeps need at least two distinct sample sizes to fit\n"

    def test_oversized_quadrature_exits_3_before_evaluating(self, monkeypatch, capsys):
        # a small cap stands in for a huge n: at n = 1e9 (m = 1000) the
        # Hellinger quadrature's 2000 cells would need a first refinement of
        # 32 * 2000 panels, above 8 * PANEL_CAP = 32768
        levels = []
        real = lecam.quadrature._simpson

        def spy(f, edges, p, *rest):
            levels.append(p * (len(edges) - 1))
            return real(f, edges, p, *rest)

        monkeypatch.setattr(lecam.quadrature, "PANEL_CAP", 4096)
        monkeypatch.setattr(lecam.quadrature, "_simpson", spy)
        code, out, err = run(
            ["sweep", "--n-grid", "10,20,30,40,1000000000", "--seed", "1"], capsys
        )
        assert (code, out) == (3, "")
        assert err == (
            "numerical failure: quadrature would need 32 panels per cell over "
            "2000 cells, above 32768\n"
        )
        assert 0 < max(levels) <= 32768


class TestParserReuse:
    """``main`` builds one parser per process; its calls share no parse state."""

    SEQUENCE = [
        ["distance", "--normal", "0,1", "--normal", "1,4", "--metric", "tv"],
        ["distance", "--metric", "nope"],  # argparse error: SystemExit(2)
        ["distance", "--normal", "0,1", "--normal", "1,1", "--normal", "2,1"],
        ["distance", "--density", "uniform", "--density", "cosine:0.3"],
    ]

    def test_parser_built_once(self, monkeypatch, capsys):
        builds = []
        real = lecam.cli.build_parser
        monkeypatch.setattr(lecam.cli, "_parser", None)
        monkeypatch.setattr(lecam.cli, "build_parser", lambda: builds.append(1) or real())
        for argv in self.SEQUENCE * 3:
            run_or_exit(argv, capsys)
        assert len(builds) == 1

    def test_each_call_matches_a_fresh_process(self, monkeypatch, capsys):
        import os
        import subprocess
        import sys

        # the usage text wraps at the terminal width; pin it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        got = [run_or_exit(argv, capsys) for argv in self.SEQUENCE]
        want = []
        for argv in self.SEQUENCE:
            proc = subprocess.run(
                [sys.executable, "-m", "lecam.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            want.append((proc.returncode, proc.stdout, proc.stderr))
        assert got == want
        assert [code for code, _, _ in got] == [0, 2, 2, 0]


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(
            ["verify", "--seed", "42", "--reps", "500", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 8
        assert all(json.loads(line)["passed"] for line in lines)

    def test_non_finite_density_exits_2(self, monkeypatch, capsys):
        # NaN on [0.4, 0.41] fails no bound comparison; unless validation rejects
        # it, the quadrature refines to its panel cap and exits 3
        def nan_band(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= 0.4) & (x <= 0.41), np.nan, 1.0)

        bad = dataclasses.replace(lecam.densities.uniform(), pdf=nan_band)
        monkeypatch.setattr(lecam.cli, "parse_spec", lambda *a, **k: bad)
        code, out, err = run(["verify", "--seed", "1", "--reps", "100"], capsys)
        assert (code, out) == (2, "")
        assert "not finite" in err

    def test_negative_control_exits_nonzero(self, tmp_path, capsys):
        out_path = tmp_path / "neg.jsonl"
        code, _, _ = run(
            [
                "verify", "--seed", "42", "--reps", "500",
                "--negative-control", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 1
        records = [json.loads(line) for line in out_path.read_text().strip().split("\n")]
        assert sum(not r["passed"] for r in records) == 2

    def test_byte_identical_across_runs_and_parallelism(self, tmp_path, capsys):
        paths = [tmp_path / f"r{i}.jsonl" for i in range(3)]
        argvs = [
            ["verify", "--seed", "42", "--reps", "400", "--out", str(paths[0])],
            ["verify", "--seed", "42", "--reps", "400", "--out", str(paths[1])],
            [
                "verify", "--seed", "42", "--reps", "400",
                "--parallel", "8", "--out", str(paths[2]),
            ],
        ]
        for argv in argvs:
            assert run(argv, capsys)[0] == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    # SHA-256 of stdout for the benchmark's verify runs, recorded when the
    # Brownian bridges became Doob's W(u) - u W(1)
    PINNED = {
        "--seed 42": "c13cb7ef0207e38a4ad76e4469b9a92d2e566a9c6c05769cc11c53bb5ce4f1c0",
        "--seed 7 --negative-control": (
            "53a2f51b07e28b74560cbf57a69be4d9de75b7112b942637ffb68c12404e76d1"
        ),
    }

    @pytest.mark.parametrize("args", sorted(PINNED))
    def test_output_bytes_are_pinned(self, args, capsys):
        argv = ["verify", *args.split(), "--reps", "10000", "--parallel", "2"]
        code, out, _ = run(argv, capsys)
        assert code == (1 if "--negative-control" in args else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[args]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["sweep", "--n-grid", "1024,2048,4096,8192"],
            ["transport", "--n", "5", "--m", "2"],
        ],
    )
    def test_negative_seed_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--seed", "-3"])
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_class_params_exit_2(self, monkeypatch, capsys):
        # a model whose claimed class does not hold is refused before any draw
        lying = dataclasses.replace(lecam.densities.uniform(), eps=2.0, M=3.0)
        monkeypatch.setattr(lecam.cli, "parse_spec", lambda *a, **k: lying)
        code, out, err = run(["verify", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert "below eps=2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "--m", "4", "--n", "10", "--seed", "1", "--gamma", "inf"],
            ["transport", "--auto-m", "--n", "10", "--seed", "1", "--gamma", "nan"],
            ["sweep", "--n-grid", "1024,2048,4096,8192", "--gamma", "nan"],
            ["sweep", "--n-grid", "1024,2048,4096,8192", "--gamma=-inf"],
        ],
    )
    def test_non_finite_class_params_exit_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err


class TestClampedCosineSpec:
    # cosine() rescales sum |a_k| > 1/2 into the class; a spec that would be
    # rescaled names a different density, so the CLI refuses it
    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--density", "cosine:2", "--density", "uniform"],
            ["sweep", "--density", "cosine:0.4,0.2", "--n-grid", "1024,2048,4096,8192",
             "--seed", "1"],
            ["verify", "--density", "cosine:-0.6", "--seed", "1"],
            ["transport", "--density", "cosine:2", "--m", "4", "--n", "10", "--seed", "1"],
        ],
    )
    def test_clamped_spec_exits_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "sum |a_k|" in err

    def test_boundary_spec_is_accepted(self, capsys):
        code, out, _ = run(
            ["distance", "--density", "cosine:0.5", "--density", "uniform", "--metric", "l2"],
            capsys,
        )
        assert code == 0
        # int (0.5 cos 2 pi x)^2 = 1/8
        assert json.loads(out)["value"] == pytest.approx(0.125, abs=1e-9)


class TestTransport:
    def test_generated_sample_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["transport", "--m", "8", "--n", "200", "--seed", "5"]
        assert run(argv + ["--out", str(out_a)], capsys)[0] == 0
        assert run(argv + ["--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        values = load_samples(out_a)
        assert values.size == 200
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_counts_mode(self, capsys):
        code, out, _ = run(
            ["transport", "--m", "4", "--counts", "3,1,0,2", "--seed", "9"], capsys
        )
        assert code == 0
        values = np.asarray(out.split(), dtype=float)
        assert values.size == 6

    def test_counts_wrong_arity(self, capsys):
        code, _, _ = run(
            ["transport", "--m", "4", "--counts", "1,2", "--seed", "9"], capsys
        )
        assert code == 2

    def test_counts_beyond_int64_exit_2(self, capsys):
        # once an OverflowError traceback with exit 1
        code, out, err = run(
            ["transport", "--counts", "99999999999999999999,1", "--m", "2", "--seed", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: bad counts vector")

    def test_counts_total_beyond_int64_exit_2(self, capsys):
        # each entry fits in int64 but their sum does not; counts.sum() would wrap
        code, out, err = run(
            ["transport", "--counts", "9223372036854775807,1", "--m", "2", "--seed", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: counts total 9223372036854775808 exceeds the int64 range\n"

    @pytest.mark.parametrize("m", ["1099511627776", "4611686018427387904"])
    def test_more_bins_than_points_exit_2_before_allocating(self, m, capsys):
        # once exit 4 from numpy: MemoryError (8 TiB) and "array is too big"
        code, out, err = run(["transport", "--n", "10", "--m", m, "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: m={m} bins exceed the n=10 sample points\n"

    def test_more_bins_than_points_exit_2_in_every_mode(self, tmp_path, capsys):
        # n is the file's value count or the counts total, as for --n
        sample = tmp_path / "in.txt"
        sample.write_text("0.1\n0.4\n0.9\n")
        argv = ["transport", "--m", "4", "--seed", "3"]
        want = (2, "", "error: m=4 bins exceed the n=3 sample points\n")
        assert run(argv + ["--in", str(sample)], capsys) == want
        assert run(argv + ["--counts", "1,1,0,1"], capsys) == want
        assert run(argv + ["--n", "3"], capsys) == want
        assert run(argv + ["--counts", "1,1,0,2"], capsys)[0] == 0  # m = n is accepted

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "1099511627776", "--m", "4"],
            ["--n", "4611686018427387904", "--m", "4"],
            ["--m", "2", "--counts", "549755813888,549755813888"],
        ],
        ids=["2^40-points", "2^62-points", "2^40-counts"],
    )
    def test_more_points_than_memory_exit_2_before_allocating(self, argv, monkeypatch, capsys):
        # past the check numpy raises MemoryError or "array is too big" (the
        # counts route in its uint8 midpoint array), which would exit 4
        touched = []
        for name in ("sample_iid", "transport_chain", "transport_batch"):
            monkeypatch.setattr(lecam.cli, name, lambda *a, **k: touched.append(a))
        code, out, err = run(["transport"] + argv + ["--seed", "1"], capsys)
        assert (code, out, touched) == (2, "", [])
        assert err.startswith("error: n=") and "GiB of physical memory" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_overflowing_envelope_exits_2(self, monkeypatch, capsys):
        # M = 1e308 cannot size sample_iid's rejection batch; refused before any draw
        loose = dataclasses.replace(cosine([0.3]), M=1e308)
        monkeypatch.setattr(lecam.cli, "parse_spec", lambda *a, **k: loose)
        code, out, err = run(["transport", "--n", "10", "--m", "4", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cosine:0.3: class bound M=1e+308 is too large")
        assert err.count("\n") == 1

    def test_input_file_mode(self, tmp_path, capsys):
        sample = tmp_path / "in.txt"
        sample.write_text("0.1\n0.4\n0.9\n0.95\n")
        code, out, _ = run(
            ["transport", "--m", "4", "--in", str(sample), "--seed", "3"], capsys
        )
        assert code == 0
        assert len(out.split()) == 4

    def test_malformed_input_file(self, tmp_path, capsys):
        sample = tmp_path / "bad.txt"
        sample.write_text("0.5\nponies\n")
        code, _, _ = run(
            ["transport", "--m", "4", "--in", str(sample), "--seed", "3"], capsys
        )
        assert code == 2

    def test_non_finite_input_file(self, tmp_path, capsys):
        sample = tmp_path / "nan.txt"
        sample.write_text("0.125\nnan\n0.625\n")
        code, out, err = run(
            ["transport", "--m", "4", "--in", str(sample), "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_out_of_range_input_file(self, tmp_path, capsys):
        sample = tmp_path / "oob.txt"
        sample.write_text("0.5\n1.5\n")
        code, _, _ = run(
            ["transport", "--m", "4", "--in", str(sample), "--seed", "3"], capsys
        )
        assert code == 2

    def test_exactly_one_input_mode(self, capsys):
        code, _, _ = run(["transport", "--m", "4", "--seed", "3"], capsys)
        assert code == 2
        code, _, _ = run(
            ["transport", "--m", "4", "--n", "5", "--counts", "1,1,1,2", "--seed", "3"],
            capsys,
        )
        assert code == 2

    def test_auto_m(self, capsys):
        code, out, _ = run(
            ["transport", "--auto-m", "--n", "1024", "--seed", "3"], capsys
        )
        assert code == 0
        assert len(out.split()) == 1024
        # --auto-m conflicts with --m and needs --n
        assert run(
            ["transport", "--auto-m", "--m", "4", "--n", "10", "--seed", "3"], capsys
        )[0] == 2
        assert run(
            ["transport", "--auto-m", "--counts", "1,1", "--seed", "3"], capsys
        )[0] == 2

    def test_in_and_counts_print_the_chains_values(self, tmp_path, capsys):
        # --in prints transport_chain's sample of the file, and --counts with the
        # file's bin counts enters the same chain at its midpoint stage on the
        # same seed path, so it prints the same bytes
        m, seed = 8, 11
        sample = tmp_path / "in.txt"
        sample.write_text("".join(format_samples(sample_iid(cosine([0.3]), 300, 4))))
        xs = load_samples(sample)
        ys = transport_chain(xs.size, m).sample(xs, substream_seq(seed, "chain"))
        want = "".join(f"{v:.12g}\n" for v in ys)
        argv = ["transport", "--m", str(m), "--seed", str(seed)]
        assert run(argv + ["--in", str(sample)], capsys) == (0, want, "")
        counts = ",".join(str(c) for c in bin_counts(xs, m))
        assert run(argv + ["--counts", counts], capsys) == (0, want, "")

    def test_output_is_a_sample_file(self, tmp_path, capsys):
        m, seed = 8, 5
        sample = tmp_path / "in.txt"
        sample.write_text("".join(format_samples(sample_iid(cosine([0.3]), 500, 2))))
        xs = load_samples(sample)
        ys = transport_chain(xs.size, m).sample(xs, substream_seq(seed, "chain"))
        want = tmp_path / "want.txt"
        want.write_text("".join(format_samples(ys)))
        out = tmp_path / "out.txt"
        argv = ["transport", "--m", str(m), "--seed", str(seed), "--in", str(sample)]
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        assert out.read_bytes() == want.read_bytes()

    # SHA-256 of stdout at n = 200000, recorded before the vectorized writer:
    # one (config, seed) gives one byte string
    PINNED = {
        "--n": "f5d0ef46ceba49e18a6681380868bbf27038fadeeb870ab8223e4e2df06959f5",
        "--counts": "8b31ed40baa1019f2b62d60d8e1b32016d8c11ec5cd57d9b27094ef64138922f",
        "--in": "a8e48794e584bedc39f7de84e16c330a5a243588eda008dd4a5e21891742c5c2",
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_output_bytes_are_pinned(self, mode, tmp_path, capsys):
        if mode == "--n":
            argv = ["--n", "200000", "--m", "16", "--seed", "11"]
        elif mode == "--counts":
            counts = [10400 + 1400 * (k % 4) for k in range(16)]
            assert sum(counts) == 200000
            argv = ["--counts", ",".join(map(str, counts)), "--m", "16", "--seed", "12"]
        else:
            xs = sample_iid(cosine([0.3]), 200000, 5)
            sample = tmp_path / "in.txt"
            # written by the % reference, so the input does not depend on the writer
            sample.write_text(("%.12g\n" * xs.size) % tuple(xs.tolist()))
            argv = ["--in", str(sample), "--m", "20", "--seed", "13"]
        code, out, _ = run(["transport"] + argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[mode]

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        argv = ["transport", "--m", "4", "--in", str(missing), "--seed", "1"]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_input_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        sample = tmp_path / "binary.txt"
        sample.write_bytes(b"0.5\n\xff\xfe\n")
        argv = ["transport", "--m", "4", "--in", str(sample), "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {sample}: malformed sample file:")

    def test_cli_and_verify_transport_build_the_same_chain(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        original = lecam.kernels.transport_chain

        def spy(n, m):
            built.append((n, m))
            return original(n, m)

        for module in (lecam.kernels, lecam.harness, lecam.cli):
            monkeypatch.setattr(module, "transport_chain", spy)
        verify_transport(cosine([0.3]), n=500, m=8, seed=1)
        sample = tmp_path / "in.txt"
        sample.write_text("0.1\n0.4\n0.9\n0.95\n")
        argv = ["transport", "--m", "4", "--seed", "3"]
        assert run(argv + ["--in", str(sample)], capsys)[0] == 0
        assert run(argv + ["--counts", "1,1,0,2"], capsys)[0] == 0
        assert run(argv[:3] + ["--n", "20"] + argv[3:], capsys)[0] == 0
        assert built == [(500, 8), (4, 4), (4, 4), (20, 4)]

    def test_empty_sample_exits_2(self, tmp_path, capsys):
        sample = tmp_path / "empty.txt"
        sample.write_text("")
        argv = ["transport", "--m", "4", "--seed", "3"]
        assert run(argv + ["--in", str(sample)], capsys)[0] == 2
        assert run(argv + ["--counts", "0,0,0,0"], capsys)[0] == 2

    def test_m_required_without_auto(self, capsys):
        code, _, _ = run(["transport", "--n", "5", "--seed", "3"], capsys)
        assert code == 2


class TestInternalErrors:
    """Unexpected exceptions exit 4 with one line, so exit 1 means only a failed check."""

    def test_any_other_exception_exits_4(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(lecam.cli, "cmd_distance", broken)
        code, out, err = run(["distance", "--normal", "0,1", "--normal", "1,1"], capsys)
        assert (code, out, err) == (4, "", "internal error: RuntimeError: boom\n")


class TestOptionSurface:
    """The density spec alone fixes the class; the parser has no overrides for it."""

    ARGV = {
        "sweep": ["sweep", "--n-grid", "1024,2048,4096,8192"],
        "verify": ["verify", "--seed", "1", "--reps", "50"],
        "transport": ["transport", "--n", "10", "--m", "4", "--seed", "1"],
    }

    def test_parser_has_25_options(self):
        sub = next(
            a for a in lecam.cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: [a.option_strings[0] for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, parser in sub.choices.items()
        }
        assert sum(len(v) for v in options.values()) == 25, options
        assert "--gamma" in options["sweep"] and "--gamma" in options["transport"]

    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c in ("sweep", "verify", "transport") for o in ("--K", "--eps", "--M")]
        + [("verify", "--gamma")],
    )
    def test_class_overrides_are_not_options(self, command, option, capsys):
        value = {"--K": "1000", "--eps": "0.1", "--M": "3", "--gamma": "0.5"}[option]
        code, out, err = run_or_exit(self.ARGV[command] + [option, value], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {option} {value}" in err


class TestIntegerOptions:
    """Integer options must fit int64; beyond it they exit 2, not 4 (internal error)."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "--n", BIG, "--m", "4", "--seed", "1"],
            ["transport", "--n", "10", "--m", "100000000000000000000", "--seed", "1"],
            ["transport", "--n", "10", "--m", str(2**63), "--seed", "1"],
            ["transport", "--n", str(-(2**63)), "--m", "4", "--seed", "1"],
            ["verify", "--seed", "1", "--reps", "1" + "0" * 30],
            ["sweep", "--n-grid", f"1024,2048,4096,{BIG}"],
            ["sweep", "--n-grid", f"1024,2048,4096,{2**63}"],
        ],
    )
    def test_beyond_int64_exits_2(self, argv, capsys):
        code, out, err = run_or_exit(argv, capsys)
        assert (code, out) == (2, "")
        assert "int64 range" in err and "internal error" not in err

    def test_int64_edge_is_accepted_by_the_parser(self):
        args = lecam.cli.build_parser().parse_args(
            ["transport", "--n", str(2**63 - 1), "--m", str(-(2**63) + 1), "--seed", "1"]
        )
        assert (args.n, args.m) == (2**63 - 1, -(2**63) + 1)
