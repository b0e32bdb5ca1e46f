"""The slice pool: the same numbers and bytes whatever the worker count.

``experiments.map_slices`` runs the per-slice passes of ``transport`` (the
sampler's candidate slices, the tent draws and the writer's chunks) and the
``verify`` suite (the risk-transfer blocks, then the other checks) on a
thread pool of at most two workers.  Each test here runs under pools of 1, 2
and 3 workers and compares with a whole-array reference or a pinned hash, so
none of them depends on the machine's CPU count.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import test_cli
import test_slices
from lecam import experiments
from lecam.densities import cosine, uniform
from lecam.errors import DomainError
from lecam.experiments import _CHUNK, format_samples, map_slices, sample_iid, stream_at
from lecam.kernels import bin_counts, transport_chain
from lecam.rng import substream

SIZES = [1, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 5]


def slice_pool(monkeypatch, workers: int) -> ThreadPoolExecutor:
    """Swap the module's slice pool for one of ``workers`` threads."""
    pool = ThreadPoolExecutor(workers)
    monkeypatch.setattr(experiments, "_pool", pool)
    return pool


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}-workers")
def workers(request, monkeypatch):
    pool = slice_pool(monkeypatch, request.param)
    yield request.param
    pool.shutdown()


class TestWorkerCountIndependence:
    @pytest.mark.parametrize("mode", sorted(test_cli.TestTransport.PINNED))
    def test_pinned_transport_hashes(self, workers, mode, tmp_path, capsys):
        if mode == "--n":
            argv = ["--n", "200000", "--m", "16", "--seed", "11"]
        elif mode == "--counts":
            counts = [10400 + 1400 * (k % 4) for k in range(16)]
            argv = ["--counts", ",".join(map(str, counts)), "--m", "16", "--seed", "12"]
        else:
            xs = sample_iid(cosine([0.3]), 200000, 5)
            sample = tmp_path / "in.txt"
            sample.write_text(("%.12g\n" * xs.size) % tuple(xs.tolist()))
            argv = ["--in", str(sample), "--m", "20", "--seed", "13"]
        code, out, _ = test_cli.run(["transport"] + argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == test_cli.TestTransport.PINNED[mode]

    @pytest.mark.parametrize("n", SIZES)
    def test_sampler(self, workers, n):
        want = test_slices.sample_iid_reference(test_slices.COSINE, n, 3)
        assert np.array_equal(sample_iid(test_slices.COSINE, n, 3), want)

    def test_sampler_envelope_error_in_a_later_slice(self, workers):
        # every candidate is accepted, so the first slice fills n; the one
        # candidate above the envelope sits in the third slice
        n = 2 * _CHUNK
        spike = substream(9, "iid").random(int(1.05 * n) + 16)[2 * _CHUNK + 10]

        def pdf(x):
            return np.where(x == spike, 2.0, 1.0)

        flat = dataclasses.replace(uniform(), pdf=pdf, M=1.0)
        with pytest.raises(DomainError) as err:
            sample_iid(flat, n, 9)
        assert str(err.value) == "uniform: density value 2 exceeds envelope M=1.0"

    @pytest.mark.parametrize("n", SIZES)
    def test_tent_stage(self, workers, n):
        counts = bin_counts(test_slices.unit_points((n,), n), 16)
        got = transport_chain(n, 16).sample(counts, 7, start=1)
        assert np.array_equal(got, test_slices.chain_reference(counts, n, 16, 7, start=1))

    @pytest.mark.parametrize("n", SIZES)
    def test_writer(self, workers, n):
        values = np.random.default_rng(n).random(n)
        values[::97] = np.random.default_rng(1).normal(0.0, 100.0, values[::97].size)
        values[5::89] = 5e-5  # below the fast range
        values[_CHUNK : 2 * _CHUNK] *= -1.0  # a chunk written by one % pass
        assert "".join(format_samples(values)) == ("%.12g\n" * n) % tuple(values.tolist())


class TestSlicePool:
    def test_results_come_in_slice_order_with_a_bounded_lead(self, workers):
        started = []

        def fn(i):
            started.append(i)
            return i

        for k, result in enumerate(map_slices(fn, range(20))):
            assert result == k
            assert max(started) <= k + workers + 1

    def test_an_exception_comes_out_at_its_slice(self, workers):
        def fn(i):
            if i >= 5:
                raise ValueError(f"slice {i}")
            return i

        results = []
        with pytest.raises(ValueError, match="slice 5"):
            for result in map_slices(fn, range(12)):
                results.append(result)
        assert results == [0, 1, 2, 3, 4]

    def test_the_module_pool_has_at_most_two_workers_and_runs_nested_maps_inline(self):
        if hasattr(os, "sched_getaffinity"):
            assert experiments._pool._max_workers == min(2, len(os.sched_getaffinity(0)))

        def nested():
            return threading.current_thread(), list(map_slices(lambda i: i, range(3)))

        caller, got = experiments._pool.submit(nested).result(timeout=60)
        assert got == [0, 1, 2] and caller is not threading.main_thread()

    def test_short_passes_and_one_worker_pools_run_on_the_calling_thread(self, workers):
        def here(_):
            return threading.current_thread()

        assert list(map_slices(here, range(2))) == [threading.main_thread()] * 2
        on_main = [t is threading.main_thread() for t in map_slices(here, range(6))]
        assert all(on_main) == (workers == 1)

    def test_pool_workers_run_slices_inline(self, workers):
        def here(_):
            return threading.current_thread()

        def fn(i):
            return here(i), list(map_slices(here, range(3)))

        for caller, inner in map_slices(fn, range(4)):
            assert inner == [caller] * 3

    def test_stress_more_workers_than_cores_with_fast_thread_switches(self, monkeypatch):
        # the tent slices write disjoint parts of one output array; a lost or
        # misplaced write would break equality with the whole-array reference
        pool = slice_pool(monkeypatch, (os.cpu_count() or 1) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            n = 9 * _CHUNK + 3
            counts = bin_counts(test_slices.unit_points((n,), 5), 16)
            want = test_slices.chain_reference(counts, n, 16, 8, start=1)
            for _ in range(3):
                got = transport_chain(n, 16).sample(counts, 8, start=1)
                assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    @pytest.mark.parametrize("offset", [0, 1, _CHUNK, 3 * _CHUNK + 7])
    @pytest.mark.parametrize("draw", ["random", "uniform"])
    def test_stream_at_offset_draws_the_sequential_stream(self, offset, draw):
        whole = getattr(substream(4, "s"), draw)(size=offset + 1000)
        state = substream(4, "s").bit_generator.state
        assert np.array_equal(getattr(stream_at(state, offset), draw)(size=1000), whole[offset:])
        with ThreadPoolExecutor(1) as other:  # another thread's generator, same values
            placed = other.submit(lambda: getattr(stream_at(state, offset), draw)(size=1000))
            assert np.array_equal(placed.result(timeout=60), whole[offset:])

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_verify_under_each_slice_pool(self, workers, capsys, parallel):
        # --parallel is accepted and changes nothing: the suite runs its checks
        # on the slice pool, whose workers run their own slices inline
        argv = ["verify", "--seed", "42", "--reps", "10000", "--parallel", parallel]
        code, out, _ = test_cli.run(argv, capsys)
        assert code == 0
        want = test_cli.TestVerify.PINNED["--seed 42"]
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_importing_the_cli_starts_no_thread():
    src = Path(experiments.__file__).resolve().parents[1]
    code = "import threading, lecam.cli; print(threading.active_count())"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.strip() == "1"
