"""Seeded random streams: bit-reproducible draws and independent streams."""

import zlib

import numpy as np

from stagenet import seeded_rng, train
from stagenet.data import make_synthetic


class TestDeterminism:
    def _run_sequence(self, seed):
        rng = seeded_rng(seed)
        a = rng.uniform(-1, 1, (2, 3, 4, 4))
        b = rng.normal(0, 1, (2, 3, 4, 4))
        c = rng.integers(0, 10, (5,))
        return a.tobytes() + b.tobytes() + c.tobytes() + rng.permutation(7).tobytes()

    def test_bit_reproducible_sequences(self):
        assert self._run_sequence(42) == self._run_sequence(42)
        assert self._run_sequence(42) != self._run_sequence(43)

    def test_streams_are_independent_and_stable(self):
        s1 = seeded_rng(9, 1).uniform(0, 1, (4,))
        s2 = seeded_rng(9, 2).uniform(0, 1, (4,))
        assert not np.allclose(s1, s2)
        np.testing.assert_array_equal(s1, seeded_rng(9, 1).uniform(0, 1, (4,)))

    def test_keys_beyond_63_bits_draw_their_own_streams(self):
        # a negative key and one >= 2**63 each differ from the key next to
        # it, as a seed and as a stream
        for a, b in [(-1, -2), (2**63, 2**63 + 1)]:
            assert self._run_sequence(a) != self._run_sequence(b)
            assert seeded_rng(0, a).random() != seeded_rng(0, b).random()


def test_system_draws_are_pinned():
    # CRC32 of the epoch-1 shuffle for seed 1 and of the synthetic labels;
    # integer draws do not depend on the host.  The init weights are pinned
    # in tests/test_backbones.py (test_initial_weight_bytes_are_pinned)
    perm = seeded_rng(1, train._SHUFFLE_TAG + 1).permutation(1000)
    assert zlib.crc32(perm.tobytes()) == 0x113978B4
    labels = make_synthetic("striped_patterns", 1000, 10, 32, 1).labels
    assert zlib.crc32(labels.tobytes()) == 0xA2014055
