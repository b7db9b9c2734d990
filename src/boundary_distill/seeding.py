"""Deterministic hierarchical seed derivation.

A single root seed is split into independent named streams (init, shuffle,
noise, data, ...) so that no two stages ever share generator state. Path
labels are hashed with sha256, so derived streams depend only on the root
seed and the label path, never on call order or platform.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.cache
def _label_token(label: str) -> int:
    """The token of a string path part, hashed once per label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _token(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, str):
        return _label_token(part)
    raise TypeError(f"seed path parts must be int or str, got {type(part).__name__}")


def seed_sequence(root: int, *path: int | str) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by (root, *path)."""
    return np.random.SeedSequence((_token(root), *(_token(p) for p in path)))


def rng_for(root: int, *path: int | str) -> np.random.Generator:
    """Fresh Generator for the stream identified by (root, *path)."""
    return np.random.default_rng(seed_sequence(root, *path))


def derive_seed(root: int, *path: int | str) -> int:
    """64-bit integer seed for APIs that take a plain int."""
    return int(seed_sequence(root, *path).generate_state(1, np.uint64)[0])
