"""The transport path works in slices of ``_CHUNK`` values: same numbers, bounded memory.

Each reference below is the whole-array formula that the sliced code
replaced, kept here so that every size around a slice boundary can be
checked against it bit for bit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from lecam.cli import main
from lecam.densities import cosine, uniform
from lecam.errors import DomainError
from lecam.experiments import _CHUNK, format_samples, sample_iid
from lecam.kernels import (
    TentBasis,
    bin_counts,
    brownian_bridge_paths,
    counts_to_midpoint_sample,
    synthesize_ystar,
    transport_chain,
)
from lecam.rng import substream, substream_seq

COSINE = cosine([0.3])
SIZES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 200_003]


def sample_iid_reference(f, n, seed):
    """Rejection sampling with each batch's candidates drawn and tested at once."""
    rng = substream(seed, "iid")
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(int(1.05 * f.M * (n - filled)) + 16, 64)
        x, u = rng.random((2, batch))
        fx = np.asarray(f.pdf(x), dtype=float)
        if fx.max() > f.M * (1.0 + 1e-9):
            raise DomainError("density exceeds its envelope")
        u *= f.M
        accepted = x[u <= fx]
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def bin_counts_reference(xs, m):
    """One flat bincount over every row, row r offset by r * m."""
    idx = np.minimum((xs * m).astype(int), m - 1)
    lead = idx.shape[:-1]
    offsets = m * np.arange(int(np.prod(lead))).reshape(lead + (1,))
    counts = np.bincount((idx + offsets).ravel(), minlength=int(np.prod(lead)) * m)
    return counts.reshape(lead + (m,))


def midpoint_sample_reference(counts, seed):
    """The repeated int64 cell indices, shuffled into a new array along the last axis."""
    m = counts.shape[-1]
    idx = np.repeat(np.broadcast_to(np.arange(m), counts.shape).ravel(), counts.ravel())
    idx = idx.reshape(counts.shape[:-1] + (int(counts.sum(axis=-1).flat[0]),))
    return substream(seed, "perm").permuted(idx, axis=-1)


def chain_reference(x, n, m, seed, start=0):
    """``transport_chain(n, m).sample(x, seed, start)`` with whole-array stages."""
    if start == 0:
        x = bin_counts_reference(x, m)
    x = midpoint_sample_reference(x, substream_seq(seed, "stage", 1))
    tent_seed = substream_seq(seed, "stage", 2)
    if n > 1:  # the i.i.d. power draws from its own "coords" stream
        tent_seed = substream_seq(tent_seed, "coords")
    u = substream(tent_seed, "tent").uniform(size=x.shape)
    return TentBasis(m).ppf_indexed(x, u)


def bridge_reference(u, rng, size):
    """Doob's bridge B(u) = W(u) - u W(1), with W summed one Python step per time point."""
    u = np.clip(np.atleast_2d(np.asarray(u, dtype=float)), 0.0, 1.0)
    bridges, points = u.shape
    z = rng.standard_normal((size, bridges, points))
    z1 = rng.standard_normal((size, bridges))  # the step on to u = 1, drawn last
    times = np.column_stack([u, np.ones(bridges)])
    w = np.empty((size, bridges, points + 1))
    prev_u = np.zeros(bridges)
    for k in range(points + 1):
        step = (z[:, :, k] if k < points else z1) * np.sqrt(
            np.clip(times[:, k] - prev_u, 0.0, None)
        )
        w[:, :, k] = step if k == 0 else w[:, :, k - 1] + step
        prev_u = times[:, k]
    out = np.empty((size, bridges, points))
    for k in range(points):
        out[:, :, k] = w[:, :, k] - u[:, k] * w[:, :, points]
    return out


def unit_points(shape, seed):
    """Uniform points with exact cell edges and both ends mixed in."""
    xs = np.random.default_rng(seed).random(shape)
    xs.flat[:: max(1, xs.size // 7)] = 0.0
    xs.flat[1 :: max(1, xs.size // 5)] = 1.0
    xs.flat[2 :: max(1, xs.size // 3)] = 0.5
    return xs


SHAPES = [(n,) for n in SIZES] + [(3, 70_001), (40_000, 3)]


class TestSampler:
    @pytest.mark.parametrize("n", [0] + SIZES)
    def test_matches_whole_batch_draws(self, n):
        assert np.array_equal(sample_iid(COSINE, n, 3), sample_iid_reference(COSINE, n, 3))

    def test_envelope_broken_only_in_a_later_slice(self):
        # with M = 1 every candidate is accepted, so the first slice already
        # fills n; the one candidate above the envelope sits in the second slice
        n = _CHUNK - 100
        batch = int(1.05 * n) + 16
        assert batch > _CHUNK
        spike = substream(9, "iid").random(batch)[_CHUNK + 10]

        def pdf(x):
            return np.where(x == spike, 2.0, 1.0)

        flat = dataclasses.replace(uniform(), pdf=pdf, M=1.0)
        with pytest.raises(DomainError):
            sample_iid(flat, n, 9)
        with pytest.raises(DomainError):
            sample_iid_reference(flat, n, 9)


class TestKernels:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("m", [16, 300])
    def test_bin_counts(self, shape, m):
        xs = unit_points(shape, shape[-1])
        assert np.array_equal(bin_counts(xs, m), bin_counts_reference(xs, m))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("m", [16, 300])
    def test_midpoint_sample(self, shape, m):
        counts = bin_counts(unit_points(shape, m), m)
        got = counts_to_midpoint_sample(counts, 4)
        assert got.dtype == (np.uint8 if m <= 256 else np.uint16)
        assert np.array_equal(got, midpoint_sample_reference(counts, 4))

    def test_midpoint_sample_over_256_cells_uses_16_bit_indices(self):
        counts = np.zeros(300, dtype=int)
        counts[[0, 255, 256, 299]] = [2, 3, 5, 7]
        got = counts_to_midpoint_sample(counts, 8)
        assert got.dtype == np.uint16
        assert np.array_equal(got, midpoint_sample_reference(counts, 8))
        assert set(got.tolist()) == {0, 255, 256, 299}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("m", [16, 300])
    def test_full_chain(self, shape, m):
        xs = unit_points(shape, m + 1)
        n = shape[-1]
        got = transport_chain(n, m).sample(xs, 6)
        assert np.array_equal(got, chain_reference(xs, n, m, 6))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("m", [16, 300])
    def test_chain_from_counts(self, shape, m):
        counts = bin_counts(unit_points(shape, m + 2), m)
        n = shape[-1]
        got = transport_chain(n, m).sample(counts, 7, start=1)
        assert np.array_equal(got, chain_reference(counts, n, m, 7, start=1))

    # the chain's y* grid, a verify block, many paths over few points, one point
    @pytest.mark.parametrize(
        "size, bridges, points", [(1, 64, 4097), (500, 8, 8), (10_000, 8, 3), (3, 1, 1)]
    )
    def test_bridges_match_the_point_loop(self, size, bridges, points):
        t = np.linspace(0.0, 1.0, points)
        u = TentBasis(max(bridges, 2)).cdf_matrix(t)[:bridges]
        got = brownian_bridge_paths(u, np.random.default_rng(5), size)
        want = bridge_reference(u, np.random.default_rng(5), size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bridges_with_repeated_and_terminal_times(self):
        u = np.array([[0.0, 0.3, 0.3, 1.0, 1.0], [0.2, 0.2, 0.9, 0.9, 1.0]])
        got = brownian_bridge_paths(u, np.random.default_rng(1), 4)
        want = bridge_reference(u, np.random.default_rng(1), 4)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWriter:
    @pytest.mark.parametrize("n", [0] + SIZES)
    def test_chunks_join_to_the_percent_pass(self, n):
        values = np.random.default_rng(n).random(n)
        chunks = list(format_samples(values))
        assert len(chunks) == -(-n // _CHUNK)
        assert all(chunk.count("\n") <= _CHUNK for chunk in chunks)
        assert "".join(chunks) == ("%.12g\n" * n) % tuple(values.tolist())


def traced_peak(fn) -> tuple[object, int]:
    """``fn()`` and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """At n = 2^19 each step's traced peak stays within four n-point arrays.

    The chain from counts is held to less: its float64 output, the 1-byte
    cell indices of the midpoint stage and one slice of work.
    """

    N = 1 << 19
    BOUND = 4 * 8 * N

    def test_sampler(self):
        xs, peak = traced_peak(lambda: sample_iid(COSINE, self.N, 1))
        assert xs.size == self.N and peak <= self.BOUND

    def test_chain_from_counts(self):
        counts = bin_counts(sample_iid(COSINE, self.N, 2), 16)
        chain = transport_chain(self.N, 16)
        ys, peak = traced_peak(lambda: chain.sample(counts, 3, start=1))
        assert ys.size == self.N and peak <= self.BOUND

    def test_chain_from_counts_holds_no_float_midpoints(self):
        counts = bin_counts(sample_iid(COSINE, self.N, 2), 16)
        chain = transport_chain(self.N, 16)
        ys, peak = traced_peak(lambda: chain.sample(counts, 3, start=1))
        assert ys.size == self.N and peak <= 9 * self.N + 64 * _CHUNK, peak

    def test_transport_command(self, tmp_path):
        out = tmp_path / "out.txt"
        argv = ["transport", "--n", str(self.N), "--m", "16", "--seed", "4", "--out", str(out)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0 and peak <= self.BOUND
        assert out.read_text().count("\n") == self.N


def test_ystar_is_unchanged_by_the_bridge_rewrite():
    incs = np.full(64, 1.0 / 64)
    got = synthesize_ystar(incs, 10_000, 3, 4096)
    t = got.times
    U = TentBasis(64).cdf_matrix(t)
    paths = bridge_reference(U, substream(3, "ystar"), 1)
    values = incs @ U + paths.sum(axis=1)[0] * (1.0 / (2.0 * np.sqrt(10_000 * 64)))
    assert np.array_equal(got.values, values - values[0])
