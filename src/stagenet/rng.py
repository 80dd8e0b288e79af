"""Seeded random streams that reproduce bit for bit across runs and platforms."""

from __future__ import annotations

import numpy as np


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy's Philox generator keyed by ``(seed, stream)``: the same key
    always yields the same draws, and each stream of one seed (one per
    epoch, or per sample and epoch) is independent of the others."""
    # a masked key >= 2**63 (every negative one among them) keeps its 64
    # bits in a uint64 array; a Python list would pass it through float64
    mask = 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.Philox(
        key=np.array([int(seed) & mask, int(stream) & mask], dtype=np.uint64)))
