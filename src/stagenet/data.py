"""Dataset ingestion, augmentation, and synthetic data generation.

CIFAR binary records are one label byte (or coarse+fine pair for the
100-class variant) followed by 3072 channel-planar pixel bytes; decoded
pixels live in [0,1].  ``_LAYOUTS`` holds each variant's record layout
and file lists.

The train-time recipe is fixed: pad by ``CROP_PAD`` and crop back,
flip horizontally with ``FLIP_PROB``, normalize per channel, then with
``ERASE_PROB`` erase a box drawn from ``ERASE_AREA`` and ``ERASE_ASPECT``.
Evaluation applies the normalization only.  ``normalize_batch`` is the one
normalizer, for images, batches and the erase fill alike; the channel
statistics it uses (``AugmentPolicy``) always come from the training split.

The synthetic dataset for deterministic desk-scale runs,
``striped_patterns``, assigns each class an oriented grating that only
convolutional features separate.

Memory: every dataset is built in place, into one preallocated float32
(M,3,H,W) array.  Beyond that copy, the CIFAR reader holds one file's
bytes at a time, decoding each file straight into its rows, and
``make_synthetic`` holds one float64 chunk of ``_CHUNK`` images and its
noise draw.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, FormatError
from .rng import SeededRng

CIFAR_PIXELS = 3072
CIFAR10_RECORD = 1 + CIFAR_PIXELS
CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]

# variant: (record bytes, classes, label offset, (train files, records per
# file), (test files, records per file)); the 100-class record puts its
# coarse label byte before the fine one
_LAYOUTS = {
    "cifar10": (CIFAR10_RECORD, 10, 0, (CIFAR10_TRAIN_FILES, 10000),
                (CIFAR10_TEST_FILES, 10000)),
    "cifar100-fine": (2 + CIFAR_PIXELS, 100, 1, (["train.bin"], 50000), (["test.bin"], 10000)),
}

# the augmentation recipe: crop padding, flip and erase probabilities, and
# the erased box's share of the image area, then its aspect ratio
CROP_PAD, FLIP_PROB, ERASE_PROB = 4, 0.5, 0.5
ERASE_AREA, ERASE_ASPECT = (0.02, 0.33), (0.3, 3.3)
SYNTHETIC_NOISE = 0.25  # std of the Gaussian pixel noise on synthetic images
_CHUNK = 64  # synthetic images built per float64 scratch block


@dataclass
class Dataset:
    """Array-of-images container; images (M,3,H,W) float32, labels (M,)."""
    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.n_classes)


def _layout(variant: str) -> tuple:
    if variant not in _LAYOUTS:
        raise ContractError(f"unknown variant {variant!r}")
    return _LAYOUTS[variant]


def parse_cifar_records(buf: bytes, variant: str) -> Dataset:
    """Decode a raw CIFAR batch buffer into a Dataset.

    The buffer must be a whole number of records; the fine label is used
    for the 100-class variant and any label byte >= N is a data error.
    """
    rec, n_classes, *_ = _layout(variant)
    if len(buf) == 0 or len(buf) % rec != 0:
        expected = (len(buf) // rec + 1) * rec if len(buf) else rec
        raise FormatError(
            f"byte count {len(buf)} is not a whole number of {rec}-byte records "
            f"(nearest whole size {expected})")
    n = len(buf) // rec
    data = Dataset(np.empty((n, 3, 32, 32), dtype=np.float32), np.empty(n, dtype=np.int64),
                   n_classes)
    _decode_into(buf, variant, data.images, data.labels)
    return data


def _decode_into(buf: bytes, variant: str, images: np.ndarray, labels: np.ndarray) -> None:
    """Decode the whole records of ``buf`` into ``images`` (n,3,32,32)
    float32 and ``labels`` (n,), which the caller allocates."""
    rec, n_classes, label_off, _, _ = _layout(variant)
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, rec)
    labels[:] = raw[:, label_off]
    if np.any(labels >= n_classes):
        bad = int(labels[labels >= n_classes][0])
        raise DataError(f"label byte {bad} out of range for {n_classes} classes")
    images[:] = raw[:, rec - CIFAR_PIXELS:].reshape(-1, 3, 32, 32)
    images /= 255.0


def encode_cifar_records(dataset: Dataset, variant: str) -> bytes:
    """Inverse of ``parse_cifar_records`` (coarse byte written as 0)."""
    label_off = _layout(variant)[2]
    n = len(dataset)
    pixels = np.round(dataset.images * 255.0).astype(np.uint8).reshape(n, CIFAR_PIXELS)
    labels = dataset.labels.astype(np.uint8).reshape(n, 1)
    coarse = np.zeros((n, label_off), dtype=np.uint8)
    return np.concatenate([coarse, labels, pixels], axis=1).tobytes()


def _load_files(root: str, names: list[str], variant: str, expect_each: int) -> Dataset:
    rec, n_classes, *_ = _layout(variant)
    n = len(names) * expect_each
    data = Dataset(np.empty((n, 3, 32, 32), dtype=np.float32), np.empty(n, dtype=np.int64),
                   n_classes)
    for i, name in enumerate(names):
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise FormatError(f"missing dataset file {path}")
        with open(path, "rb") as fh:
            buf = fh.read()
        if len(buf) != expect_each * rec:
            raise FormatError(
                f"{path}: expected {expect_each * rec} bytes "
                f"({expect_each} records), got {len(buf)}")
        rows = slice(i * expect_each, (i + 1) * expect_each)
        _decode_into(buf, variant, data.images[rows], data.labels[rows])
        del buf  # so that the next file's read does not overlap this one
    return data


def load_cifar(path: str, variant: str = "cifar10"):
    """Load the canonical binary layout from a directory.

    Returns (train, test) with 50000/10000 images scaled into [0,1].
    """
    *_, train, test = _layout(variant)
    return tuple(_load_files(path, names, variant, each) for names, each in (train, test))


def cifar_available(path: str, variant: str = "cifar10") -> bool:
    *_, (train, _), (test, _) = _layout(variant)
    return bool(path) and all(os.path.exists(os.path.join(path, n)) for n in train + test)


# --------------------------------------------------------------------------
# augmentation
# --------------------------------------------------------------------------

@dataclass
class AugmentPolicy:
    """The per-channel normalization statistics, stored as float32 (3,);
    ``std`` must be positive.  The rest of the recipe is the module
    constants ``CROP_PAD``, ``FLIP_PROB``, ``ERASE_PROB``, ``ERASE_AREA``
    and ``ERASE_ASPECT``."""
    mean: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.float32))
    std: np.ndarray = field(default_factory=lambda: np.ones(3, dtype=np.float32))

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float32).reshape(3)
        self.std = np.asarray(self.std, dtype=np.float32).reshape(3)
        if np.any(self.std <= 0):
            raise ContractError("normalization std must be positive")


def channel_stats(images: np.ndarray):
    """Per-channel mean/std over a training split (std floored at 1e-6)."""
    mean = images.mean(axis=(0, 2, 3))
    std = np.maximum(images.std(axis=(0, 2, 3)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def normalize_batch(images: np.ndarray, policy: AugmentPolicy) -> np.ndarray:
    """``(images - mean) / std`` per channel for any (..., 3, H, W); a new
    float32 array."""
    return ((images - policy.mean[:, None, None])
            / policy.std[:, None, None]).astype(np.float32, copy=False)


def sample_erase_box(h: int, w: int, rng: SeededRng):
    """Erasing-region sampler: draw area and aspect until the box fits.

    Returns (top, left, eh, ew) or None after 100 rejected draws.  The
    draw sequence is part of the augmentation contract so that the same
    rng stream always produces the same region.
    """
    lo, hi = ERASE_AREA
    alo, ahi = ERASE_ASPECT
    for _ in range(100):
        area = rng.uniform(lo, hi, ()) * h * w
        aspect = rng.uniform(alo, ahi, ())
        eh = int(round(float(np.sqrt(area * aspect))))
        ew = int(round(float(np.sqrt(area / aspect))))
        if 0 < eh <= h and 0 < ew <= w:
            top = int(rng.integers(0, h - eh + 1))
            left = int(rng.integers(0, w - ew + 1))
            return top, left, eh, ew
    return None


def augment_batch(dataset: Dataset, indices: np.ndarray, policy: AugmentPolicy,
                  seed: int, epoch: int) -> np.ndarray:
    """Pad-and-crop, flip, normalize and erase the selected samples; a new
    (len(indices),3,H,W) float32 array.  Each image draws from its own
    stream (seed, epoch*M + index), crop offsets, flip, erase and box in
    that order, so rows do not depend on batch boundaries or worker layout."""
    m = len(dataset)
    _, c, h, w = dataset.images.shape
    p = CROP_PAD
    padded = np.zeros((len(indices), c, h + 2 * p, w + 2 * p), dtype=np.float32)
    out = np.empty((len(indices), c, h, w), dtype=np.float32)
    base = SeededRng(seed)
    boxes = []
    for row, idx in enumerate(indices):
        stream = base.split(epoch * m + int(idx))
        padded[row, :, p:p + h, p:p + w] = dataset.images[int(idx)]
        top = int(stream.integers(0, 2 * p + 1))
        left = int(stream.integers(0, 2 * p + 1))
        crop = padded[row, :, top:top + h, left:left + w]
        out[row] = crop[:, :, ::-1] if stream.random() < FLIP_PROB else crop
        if stream.random() < ERASE_PROB:
            box = sample_erase_box(h, w, stream)
            if box is not None:
                noise = stream.uniform(0.0, 1.0, (c,) + box[2:], dtype=np.float32)
                boxes.append((row, box, noise))
    out -= policy.mean[:, None, None]
    out /= policy.std[:, None, None]
    for row, (top, left, eh, ew), noise in boxes:
        out[row, :, top:top + eh, left:left + ew] = normalize_batch(noise, policy)
    return out


# --------------------------------------------------------------------------
# synthetic datasets
# --------------------------------------------------------------------------

def make_synthetic(kind: str, n_samples: int, n_classes: int, image_size: int,
                   seed: int) -> Dataset:
    """Deterministic labeled images for desk-scale experiments."""
    if kind != "striped_patterns":
        raise ContractError(f"unknown synthetic kind {kind!r}")
    if n_classes < 2:
        raise ContractError("need at least 2 classes")
    rng = SeededRng(seed, 31)
    labels = rng.integers(0, n_classes, (n_samples,)).astype(np.int64)
    return Dataset(_striped_patterns(labels, n_classes, image_size, rng), labels, n_classes)


def _striped_patterns(labels, n_classes, size, rng):
    # each class is an oriented sinusoidal grating; phase and amplitude
    # jitter per sample keep the task convolutional rather than template.
    # A chunk is built in float64 and noised, clipped and cast into its
    # rows; chunked normal draws consume Philox exactly as one whole draw.
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    angles = np.pi * np.arange(n_classes) / n_classes
    freqs = 2.0 + (np.arange(n_classes) % 3)
    n = len(labels)
    phases = rng.uniform(0.0, 2 * np.pi, (n,))
    amps = rng.uniform(0.8, 1.2, (n,))
    images = np.empty((n, 3, size, size), dtype=np.float32)
    chunk = np.empty((min(n, _CHUNK), 3, size, size))
    for start in range(0, n, _CHUNK):
        block = chunk[:min(_CHUNK, n - start)]
        for j, i in enumerate(range(start, start + len(block))):
            theta = angles[labels[i]]
            wave = np.cos(2 * np.pi * freqs[labels[i]]
                          * (xx * np.cos(theta) + yy * np.sin(theta)) / size + phases[i])
            block[j] = 0.5 + 0.4 * amps[i] * wave
        block += rng.normal(0.0, SYNTHETIC_NOISE, block.shape)
        np.clip(block, 0.0, 1.0, out=block)
        images[start:start + len(block)] = block
    return images
