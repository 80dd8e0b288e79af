"""Augmentation streams and the CIFAR binary reader."""

import numpy as np
import pytest

from stagenet.data import (AugmentPolicy, Dataset, augment_batch, encode_cifar_records,
                           make_synthetic, normalize_batch, parse_cifar_records)
from stagenet.errors import DataError, FormatError
from stagenet.rng import SeededRng


class TestAugmentBatch:
    def test_rows_do_not_depend_on_batch_slicing(self):
        data = make_synthetic("striped_patterns", 12, 3, 8, seed=1)
        policy = AugmentPolicy(crop_pad=2, mean=[0.5, 0.4, 0.3], std=[0.2, 0.3, 0.4])
        idx = SeededRng(2).permutation(len(data))
        whole = augment_batch(data, idx, policy, seed=3, epoch=2)
        halves = np.concatenate([augment_batch(data, idx[:5], policy, 3, 2),
                                 augment_batch(data, idx[5:], policy, 3, 2)])
        single = np.concatenate([augment_batch(data, idx[i:i + 1], policy, 3, 2)
                                 for i in range(len(idx))])
        assert whole.shape == (12, 3, 8, 8)
        assert whole.tobytes() == halves.tobytes() == single.tobytes()

    def test_without_augmentation_equals_normalize_batch(self):
        data = make_synthetic("striped_patterns", 12, 3, 8, seed=1)
        policy = AugmentPolicy(crop_pad=0, flip_prob=0, erase_prob=0,
                               mean=[0.5, 0.4, 0.3], std=[0.2, 0.3, 0.4])
        idx = SeededRng(2).permutation(len(data))
        got = augment_batch(data, idx, policy, seed=3, epoch=2)
        expected = normalize_batch(data.images[idx], policy)
        assert got.dtype == expected.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


def grid_dataset(n, n_classes):
    """Images whose pixels lie on the 1/255 grid, as decoded CIFAR pixels do."""
    rng = SeededRng(4)
    levels = rng.integers(0, 256, (n, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, n_classes, (n,)).astype(np.int64)
    return Dataset(levels / 255.0, labels, n_classes)


@pytest.mark.parametrize("variant,n_classes,record", [("cifar10", 10, 3073),
                                                      ("cifar100-fine", 100, 3074)])
class TestCifarRecords:
    def test_encode_parse_round_trip(self, variant, n_classes, record):
        data = grid_dataset(5, n_classes)
        buf = encode_cifar_records(data, variant)
        assert len(buf) == 5 * record
        back = parse_cifar_records(buf, variant)
        assert back.n_classes == n_classes
        assert back.images.tobytes() == data.images.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_buffer_one_byte_short_rejected(self, variant, n_classes, record):
        buf = encode_cifar_records(grid_dataset(2, n_classes), variant)
        with pytest.raises(FormatError, match=f"{record}-byte records"):
            parse_cifar_records(buf[:-1], variant)

    def test_label_byte_out_of_range_rejected(self, variant, n_classes, record):
        raw = bytearray(encode_cifar_records(grid_dataset(2, n_classes), variant))
        label_offset = record - 3073  # the fine label follows the coarse one
        raw[record + label_offset] = n_classes  # in the second record
        with pytest.raises(DataError, match=f"label byte {n_classes} "):
            parse_cifar_records(bytes(raw), variant)
