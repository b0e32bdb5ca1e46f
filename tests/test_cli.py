import json
import math

import numpy as np
import pytest

import lecam.cli
import lecam.harness
import lecam.kernels
from lecam.cli import _normal_crossings, main
from lecam.densities import cosine
from lecam.experiments import load_samples, sample_iid, save_samples
from lecam.harness import verify_transport
from lecam.kernels import bin_counts, transport_chain
from lecam.measures import NormalSpec
from lecam.rng import substream_seq


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        narrow, wide = sorted((NormalSpec(*a), NormalSpec(*b)), key=lambda s: s.variance)
        lo, hi = sorted(_normal_crossings(narrow, wide))

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

    def test_normal_crossings_of_unequal_variances(self):
        # phi(x) = phi(x / 2) / 2  <=>  x^2 = (8 / 3) ln 2
        a, b = NormalSpec(0.0, 1.0), NormalSpec(0.0, 4.0)
        for lo, hi in (sorted(_normal_crossings(a, b)), sorted(_normal_crossings(b, a))):
            assert lo == pytest.approx(-1.35956, abs=1e-5)
            assert hi == pytest.approx(1.35956, abs=1e-5)
            assert a.pdf(hi) == pytest.approx(b.pdf(hi), rel=1e-12)

    def test_normal_crossings_of_shifted_unequal_variances(self):
        a, b = NormalSpec(0.5, 0.3), NormalSpec(-1.0, 2.5)
        roots = _normal_crossings(a, b)
        assert len(roots) == 2
        for x in roots:
            assert a.pdf(x) == pytest.approx(b.pdf(x), rel=1e-10)

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

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--n-grid", "1024,2048,4096,8192"])
        assert err.value.code == 2

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

    def test_bad_class_params_exit_2(self, capsys):
        code, _, err = run(
            ["verify", "--seed", "1", "--eps", "2", "--M", "1"], capsys
        )
        assert code == 2
        assert "eps" in err


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

    def test_input_file_mode(self, tmp_path, capsys):
        sample = tmp_path / "in.txt"
        sample.write_text("0.1\n0.4\n0.9\n")
        code, out, _ = run(
            ["transport", "--m", "4", "--in", str(sample), "--seed", "3"], capsys
        )
        assert code == 0
        assert len(out.split()) == 3

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
        save_samples(sample, sample_iid(cosine([0.3]), 300, 4))
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
        save_samples(sample, sample_iid(cosine([0.3]), 500, 2))
        xs = load_samples(sample)
        ys = transport_chain(xs.size, m).sample(xs, substream_seq(seed, "chain"))
        want = tmp_path / "want.txt"
        save_samples(want, ys)
        out = tmp_path / "out.txt"
        argv = ["transport", "--m", str(m), "--seed", str(seed), "--in", str(sample)]
        assert run(argv + ["--out", str(out)], capsys)[0] == 0
        assert out.read_bytes() == want.read_bytes()

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        argv = ["transport", "--m", "4", "--in", str(missing), "--seed", "1"]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

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
        sample.write_text("0.1\n0.4\n0.9\n")
        argv = ["transport", "--m", "4", "--seed", "3"]
        assert run(argv + ["--in", str(sample)], capsys)[0] == 0
        assert run(argv + ["--counts", "1,1,0,1"], capsys)[0] == 0
        assert run(argv[:3] + ["--n", "20"] + argv[3:], capsys)[0] == 0
        assert built == [(500, 8), (3, 4), (3, 4), (20, 4)]

    def test_empty_sample_exits_2(self, tmp_path, capsys):
        sample = tmp_path / "empty.txt"
        sample.write_text("")
        argv = ["transport", "--m", "4", "--seed", "3"]
        assert run(argv + ["--in", str(sample)], capsys)[0] == 2
        assert run(argv + ["--counts", "0,0,0,0"], capsys)[0] == 2

    def test_m_required_without_auto(self, capsys):
        code, _, _ = run(["transport", "--n", "5", "--seed", "3"], capsys)
        assert code == 2
