"""Augmentation streams, synthetic data and the CIFAR-10 binary reader;
the one-shot generator, the per-image augmentation and the per-file
reader that the batched and in-place forms replaced are oracles local to
this file, and so is the record writer that feeds the reader."""

import re
import tracemalloc
import zlib

import numpy as np
import pytest

from stagenet import data as data_module
from stagenet.data import (_CHUNK, CIFAR10_RECORD, CIFAR10_TEST_FILES, CIFAR10_TRAIN_FILES,
                           CIFAR_PIXELS, CROP_PAD, ERASE_PROB, FLIP_PROB, SYNTHETIC_NOISE,
                           AugmentPolicy, Dataset, _load_files, augment_batch, cifar_available,
                           load_cifar, make_synthetic, normalize_batch, sample_erase_box)
from stagenet.errors import ContractError, DataError, FormatError
from stagenet.rng import seeded_rng


class TestAugmentBatch:
    def test_rows_do_not_depend_on_batch_slicing(self):
        data = make_synthetic("striped_patterns", 12, 3, 8, seed=1)
        policy = AugmentPolicy(mean=[0.5, 0.4, 0.3], std=[0.2, 0.3, 0.4])
        idx = seeded_rng(2).permutation(len(data))
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

    @pytest.mark.parametrize("seed", [0, 3, 91])
    def test_matches_the_per_image_oracle(self, seed):
        data = make_synthetic("striped_patterns", 70, 4, 16, seed=seed)
        policy = AugmentPolicy(mean=[0.5, 0.4, 0.3], std=[0.2, 0.3, 0.4])
        for epoch in (0, 1, 5):
            idx = seeded_rng(seed, epoch).permutation(len(data))[:40]
            want = np.stack([augment_one(data.images[i], policy,
                                         seeded_rng(seed, epoch * len(data) + int(i)))
                             for i in idx])
            assert augment_batch(data, idx, policy, seed, epoch).tobytes() == want.tobytes()

    def test_policy_rejects_a_non_positive_std(self):
        with pytest.raises(ContractError, match="std must be positive"):
            AugmentPolicy(std=[1.0, 0.0, 1.0])


def augment_one(px, policy, rng):
    """Pad-and-crop, flip, normalize, erase one (3,H,W) image, drawing from
    ``rng`` in the order ``augment_batch`` promises."""
    c, h, w = px.shape
    p = CROP_PAD
    padded = np.pad(px, ((0, 0), (p, p), (p, p)))
    top = int(rng.integers(0, 2 * p + 1))
    left = int(rng.integers(0, 2 * p + 1))
    px = padded[:, top:top + h, left:left + w]
    if rng.random() < FLIP_PROB:
        px = px[:, :, ::-1]
    px = normalize_batch(px, policy)
    if rng.random() < ERASE_PROB:
        box = sample_erase_box(h, w, rng)
        if box is not None:
            top, left, eh, ew = box
            noise = rng.uniform(0.0, 1.0, (c, eh, ew)).astype(np.float32)
            px[:, top:top + eh, left:left + ew] = normalize_batch(noise, policy)
    return px


def grid_dataset(n, n_classes):
    """Images whose pixels lie on the 1/255 grid, as decoded CIFAR pixels do."""
    rng = seeded_rng(4)
    levels = rng.integers(0, 256, (n, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, n_classes, (n,)).astype(np.int64)
    return Dataset(levels / 255.0, labels, n_classes)


def encode_cifar_records(dataset):
    """CIFAR-10 records of ``dataset``, whose pixels lie on the 1/255 grid:
    each sample's label byte, then its pixel bytes."""
    n = len(dataset)
    pixels = np.round(dataset.images * 255.0).astype(np.uint8).reshape(n, CIFAR_PIXELS)
    labels = dataset.labels.astype(np.uint8).reshape(n, 1)
    return np.concatenate([labels, pixels], axis=1).tobytes()


def test_unknown_synthetic_kind_rejected():
    with pytest.raises(ContractError, match="unknown synthetic kind 'noise'"):
        make_synthetic("noise", 4, 2, 8, seed=0)


def one_shot_striped_patterns(n, n_classes, size, seed):
    """All gratings in one float64 array, one noise draw, then clip and cast."""
    rng = seeded_rng(seed, 31)
    labels = rng.integers(0, n_classes, (n,)).astype(np.int64)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    angles = np.pi * np.arange(n_classes) / n_classes
    freqs = 2.0 + (np.arange(n_classes) % 3)
    phases = rng.uniform(0.0, 2 * np.pi, (n,))
    amps = rng.uniform(0.8, 1.2, (n,))
    images = np.empty((n, 3, size, size))
    for i, lab in enumerate(labels):
        theta = angles[lab]
        wave = np.cos(2 * np.pi * freqs[lab]
                      * (xx * np.cos(theta) + yy * np.sin(theta)) / size + phases[i])
        images[i] = (0.5 + 0.4 * amps[i] * wave)[None, :, :]
    images += rng.normal(0.0, SYNTHETIC_NOISE, images.shape)
    return np.clip(images, 0.0, 1.0).astype(np.float32), labels


class TestSynthetic:
    @pytest.mark.parametrize("size", [8, 16, 32])
    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 1000])
    def test_matches_the_one_shot_oracle(self, n, size):
        for seed in (0, 7, 2024):
            data = make_synthetic("striped_patterns", n, 10, size, seed)
            images, labels = one_shot_striped_patterns(n, 10, size, seed)
            assert data.images.dtype == np.float32 and data.images.shape == (n, 3, size, size)
            assert data.images.tobytes() == images.tobytes()
            assert data.labels.tobytes() == labels.tobytes()

    def test_peak_memory_is_the_output_and_one_chunk(self):
        peak, data = traced_peak(lambda: make_synthetic("striped_patterns", 1000, 10, 32, 5))
        assert peak <= data.images.nbytes + 4 * 2**20


def traced_peak(call):
    """(peak bytes that numpy and Python allocated during ``call()``, its result)."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_file_one_byte_off_named(self, tmp_path, extra):
        buf = encode_cifar_records(grid_dataset(2, 10))
        path = tmp_path / "a.bin"
        path.write_bytes(buf[:-1] if extra < 0 else buf + bytes(1))
        size = 2 * CIFAR10_RECORD
        want = f"{path}: expected {size} bytes (2 records), got {size + extra}"
        with pytest.raises(FormatError, match=re.escape(want)):
            _load_files(str(tmp_path), ["a.bin"], 2)

    def test_label_byte_out_of_range_rejected(self, tmp_path):
        raw = bytearray(encode_cifar_records(grid_dataset(2, 10)))
        raw[CIFAR10_RECORD] = 10  # the label byte of the second record
        (tmp_path / "a.bin").write_bytes(bytes(raw))
        with pytest.raises(DataError, match="label byte 10 "):
            _load_files(str(tmp_path), ["a.bin"], 2)

    def test_load_files_round_trip(self, tmp_path):
        data = grid_dataset(6, 10)
        names = ["a.bin", "b.bin"]
        for i, name in enumerate(names):
            part = data.subset(range(3 * i, 3 * i + 3))
            (tmp_path / name).write_bytes(encode_cifar_records(part))
        back = _load_files(str(tmp_path), names, 3)
        assert back.n_classes == 10
        assert back.images.tobytes() == data.images.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_load_cifar_matches_the_per_file_oracle(self, tmp_path, monkeypatch):
        # the real files hold 10,000 records each; the same file lists with
        # a few records each take the same path through the reader
        monkeypatch.setattr(data_module, "CIFAR10_FILE_RECORDS", 7)
        rng = seeded_rng(11)
        for name in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES:
            raw = rng.integers(0, 256, (7, CIFAR10_RECORD)).astype(np.uint8)
            raw[:, 0] %= 10
            (tmp_path / name).write_bytes(raw.tobytes())
        splits = load_cifar(str(tmp_path))
        for split, names in zip(splits, (CIFAR10_TRAIN_FILES, CIFAR10_TEST_FILES)):
            raws = [np.frombuffer((tmp_path / n).read_bytes(), dtype=np.uint8)
                    .reshape(-1, CIFAR10_RECORD) for n in names]
            pixels = [r[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0 for r in raws]
            assert split.images.tobytes() == np.concatenate(pixels).tobytes()
            np.testing.assert_array_equal(split.labels, np.concatenate([r[:, 0] for r in raws]))
            assert split.n_classes == 10

    def test_peak_memory_is_the_output_and_a_file(self, tmp_path):
        names = [f"part{i}.bin" for i in range(5)]
        for i, name in enumerate(names):
            raw = seeded_rng(i).integers(0, 256, (2000, CIFAR10_RECORD)).astype(np.uint8)
            raw[:, 0] %= 10
            (tmp_path / name).write_bytes(raw.tobytes())
        peak, data = traced_peak(lambda: _load_files(str(tmp_path), names, 2000))
        assert len(data) == 10000
        assert peak <= data.images.nbytes + 2 * 2000 * CIFAR10_RECORD
