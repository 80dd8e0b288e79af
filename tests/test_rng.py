"""Seeded random streams: bit-reproducible draws and independent splits."""

import numpy as np

from stagenet import SeededRng


class TestDeterminism:
    def _run_sequence(self, seed):
        rng = SeededRng(seed)
        a = rng.uniform(-1, 1, (2, 3, 4, 4))
        b = rng.normal(0, 1, (2, 3, 4, 4))
        c = rng.integers(0, 10, (5,))
        return a.tobytes() + b.tobytes() + c.tobytes() + rng.permutation(7).tobytes()

    def test_bit_reproducible_sequences(self):
        assert self._run_sequence(42) == self._run_sequence(42)
        assert self._run_sequence(42) != self._run_sequence(43)

    def test_split_streams_are_independent_and_stable(self):
        r = SeededRng(9)
        s1 = r.split(1).uniform(0, 1, (4,))
        s2 = r.split(2).uniform(0, 1, (4,))
        assert not np.allclose(s1, s2)
        np.testing.assert_array_equal(s1, SeededRng(9).split(1).uniform(0, 1, (4,)))

    def test_keys_beyond_63_bits_draw_their_own_streams(self):
        # a negative key and one >= 2**63 each differ from the key next to
        # it, as a seed and as a stream
        for a, b in [(-1, -2), (2**63, 2**63 + 1)]:
            assert self._run_sequence(a) != self._run_sequence(b)
            assert SeededRng(0, a).random() != SeededRng(0, b).random()
