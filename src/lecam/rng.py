"""Deterministic named substreams derived from a single master seed.

Every randomized routine receives a seed and derives child streams by name
(operation, replication index, coordinate, ...), so replication sweeps give
identical results whether they run serially, in another order, or in
parallel.  Names are hashed with SHA-256, never with the builtin ``hash``,
to stay stable across interpreter runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream_seq", "substream"]


def _words(item) -> tuple[int, ...]:
    """Two 32-bit words identifying one path element."""
    if isinstance(item, (bool, np.bool_)):
        raise TypeError("booleans are ambiguous stream names")
    if isinstance(item, (int, np.integer)):
        payload = b"i" + int(item).to_bytes(8, "little", signed=True)
    elif isinstance(item, str):
        payload = b"s" + item.encode("utf8")
    else:
        raise TypeError(f"stream names must be int or str, got {type(item)!r}")
    digest = hashlib.sha256(payload).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def substream_seq(seed, *path) -> np.random.SeedSequence:
    """SeedSequence for the child stream named by ``path`` under an int, None or SeedSequence."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key = tuple(base.spawn_key)
    for item in path:
        key += _words(item)
    return np.random.SeedSequence(base.entropy, spawn_key=key)


def substream(seed, *path) -> np.random.Generator:
    """Independent generator for the child stream named by ``path``."""
    return np.random.default_rng(substream_seq(seed, *path))
