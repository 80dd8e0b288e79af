"""Augmentation streams, synthetic data and the CIFAR binary reader."""

import re
import zlib

import numpy as np
import pytest

from stagenet.data import (CIFAR10_RECORD, CIFAR10_TEST_FILES, CIFAR10_TRAIN_FILES,
                           AugmentPolicy, Dataset, _load_files, augment_batch, cifar_available,
                           encode_cifar_records, load_cifar, make_synthetic, parse_cifar_records)
from stagenet.errors import ContractError, DataError, FormatError
from stagenet.rng import SeededRng


class TestAugmentBatch:
    def test_rows_do_not_depend_on_batch_slicing(self):
        data = make_synthetic("striped_patterns", 12, 3, 8, seed=1)
        policy = AugmentPolicy(mean=[0.5, 0.4, 0.3], std=[0.2, 0.3, 0.4])
        idx = SeededRng(2).permutation(len(data))
        whole = augment_batch(data, idx, policy, seed=3, epoch=2)
        halves = np.concatenate([augment_batch(data, idx[:5], policy, 3, 2),
                                 augment_batch(data, idx[5:], policy, 3, 2)])
        single = np.concatenate([augment_batch(data, idx[i:i + 1], policy, 3, 2)
                                 for i in range(len(idx))])
        assert whole.shape == (12, 3, 8, 8)
        assert whole.tobytes() == halves.tobytes() == single.tobytes()

    def test_bytes_are_pinned(self):
        # CRC32 over epochs 1-3; pixels on the 1/255 grid make the input
        # exact on any host, unlike make_synthetic's cos
        data = grid_dataset(16, 10)
        policy = AugmentPolicy(mean=[0.5, 0.4, 0.3], std=[0.2, 0.3, 0.4])
        crc = 0
        for epoch in (1, 2, 3):
            out = augment_batch(data, np.arange(16), policy, seed=3, epoch=epoch)
            assert out.dtype == np.float32 and out.flags.c_contiguous
            crc = zlib.crc32(out.tobytes(), crc)
        assert crc == 0x6DAE08DD

    def test_policy_rejects_a_non_positive_std(self):
        with pytest.raises(ContractError, match="std must be positive"):
            AugmentPolicy(std=[1.0, 0.0, 1.0])


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


@pytest.mark.parametrize("entry", [
    lambda path: parse_cifar_records(bytes(3073), "svhn"),
    lambda path: encode_cifar_records(grid_dataset(1, 10), "svhn"),
    lambda path: _load_files(path, ["train.bin"], "svhn", 1),
    lambda path: load_cifar(path, "svhn"),
    lambda path: cifar_available(path, "svhn"),
], ids=["parse", "encode", "load_files", "load_cifar", "available"])
def test_unknown_variant_rejected(tmp_path, entry):
    # every file of either layout exists, so nothing falls through to one
    for name in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES + ["train.bin", "test.bin"]:
        (tmp_path / name).write_bytes(bytes(3074))
    with pytest.raises(ContractError, match="unknown variant 'svhn'"):
        entry(str(tmp_path))


def test_unknown_synthetic_kind_rejected():
    with pytest.raises(ContractError, match="unknown synthetic kind 'noise'"):
        make_synthetic("noise", 4, 2, 8, seed=0)


class TestCifarDirectory:
    def test_missing_file_named(self, tmp_path):
        missing = tmp_path / CIFAR10_TRAIN_FILES[0]
        with pytest.raises(FormatError, match=re.escape(f"missing dataset file {missing}")):
            load_cifar(str(tmp_path))

    def test_file_one_record_short_named(self, tmp_path):
        short = tmp_path / CIFAR10_TRAIN_FILES[0]
        with open(short, "wb") as fh:  # sparse zeros; the length is checked before parsing
            fh.truncate(9999 * CIFAR10_RECORD)
        with pytest.raises(FormatError, match=re.escape(
                f"{short}: expected {10000 * CIFAR10_RECORD} bytes (10000 records)")):
            load_cifar(str(tmp_path))

    def test_available_only_with_all_six_files(self, tmp_path):
        names = CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES
        assert len(names) == 6
        assert not cifar_available(str(tmp_path))
        for name in names[:-1]:
            (tmp_path / name).touch()
        assert not cifar_available(str(tmp_path))
        (tmp_path / names[-1]).touch()
        assert cifar_available(str(tmp_path))

    @pytest.mark.parametrize("variant,n_classes", [("cifar10", 10), ("cifar100-fine", 100)])
    def test_load_files_round_trip(self, tmp_path, variant, n_classes):
        data = grid_dataset(6, n_classes)
        names = ["a.bin", "b.bin"]
        for i, name in enumerate(names):
            (tmp_path / name).write_bytes(encode_cifar_records(data.subset(range(3 * i, 3 * i + 3)),
                                                               variant))
        back = _load_files(str(tmp_path), names, variant, 3)
        assert back.n_classes == n_classes
        assert back.images.tobytes() == data.images.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)
