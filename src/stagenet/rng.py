"""Seeded random streams that reproduce bit for bit across runs and platforms."""

from __future__ import annotations

import numpy as np


class SeededRng:
    """Counter-based random stream that is reproducible across platforms.

    Wraps numpy's Philox bit generator keyed by ``(seed, stream)``.  The
    same key always yields the same draw sequence, and ``split`` derives
    statistically independent streams, so parallel workers can each own
    a stream derived from (seed, worker index) without coordination.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        # a masked key >= 2**63 (every negative one among them) keeps its 64
        # bits in a uint64 array; a Python list would pass it through float64
        mask = 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(
            key=np.array([self.seed & mask, self.stream & mask], dtype=np.uint64)))

    def split(self, stream: int) -> "SeededRng":
        """Independent stream for the same seed, e.g. one per epoch or sample."""
        return SeededRng(self.seed, stream)

    def uniform(self, low: float, high: float, shape=None, dtype=np.float64) -> np.ndarray:
        out = self._gen.uniform(low, high, size=shape)
        return np.asarray(out, dtype=dtype)

    def normal(self, mean: float, std: float, shape=None) -> np.ndarray:
        return np.asarray(self._gen.normal(mean, std, size=shape))

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def random(self) -> float:
        return float(self._gen.random())

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
