"""Deterministic child-generator derivation from a single user seed."""

from __future__ import annotations

import zlib

import numpy as np


def child_rng(seed: int, *tags) -> np.random.Generator:
    """Independent generator for (seed, tags); stable across runs.

    Tags may be ints or short strings; strings are hashed with crc32 so the
    derivation does not depend on Python's randomized hash.
    """
    ints = [int(seed) & 0xFFFFFFFF]
    for t in tags:
        if isinstance(t, str):
            ints.append(zlib.crc32(t.encode("utf-8")))
        else:
            ints.append(int(t) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(ints))


def child_seed(seed: int, *tags) -> int:
    """Integer seed in [0, 2**31 - 1) drawn from child_rng(seed, *tags)."""
    return int(child_rng(seed, *tags).integers(0, 2**31 - 1))
