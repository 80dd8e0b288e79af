"""Dataset ingestion, augmentation, and synthetic data generation.

A CIFAR-10 binary record is one label byte followed by 3072
channel-planar pixel bytes; decoded pixels live in [0,1].

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
from .rng import seeded_rng

CIFAR_PIXELS = 3072
CIFAR10_RECORD = 1 + CIFAR_PIXELS
CIFAR10_CLASSES = 10
CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]
CIFAR10_FILE_RECORDS = 10000  # records in each file of either split

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


def _decode_into(buf: bytes, images: np.ndarray, labels: np.ndarray) -> None:
    """Decode the whole records of ``buf`` into ``images`` (n,3,32,32)
    float32 and ``labels`` (n,), which the caller allocates; a label byte
    >= 10 is a data error."""
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR10_RECORD)
    labels[:] = raw[:, 0]
    if np.any(labels >= CIFAR10_CLASSES):
        bad = int(labels[labels >= CIFAR10_CLASSES][0])
        raise DataError(f"label byte {bad} out of range for {CIFAR10_CLASSES} classes")
    images[:] = raw[:, 1:].reshape(-1, 3, 32, 32)
    images /= 255.0


def _load_files(root: str, names: list[str], expect_each: int) -> Dataset:
    n = len(names) * expect_each
    data = Dataset(np.empty((n, 3, 32, 32), dtype=np.float32), np.empty(n, dtype=np.int64),
                   CIFAR10_CLASSES)
    for i, name in enumerate(names):
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise FormatError(f"missing dataset file {path}")
        with open(path, "rb") as fh:
            buf = fh.read()
        if len(buf) != expect_each * CIFAR10_RECORD:
            raise FormatError(
                f"{path}: expected {expect_each * CIFAR10_RECORD} bytes "
                f"({expect_each} records), got {len(buf)}")
        rows = slice(i * expect_each, (i + 1) * expect_each)
        _decode_into(buf, data.images[rows], data.labels[rows])
        del buf  # so that the next file's read does not overlap this one
    return data


def load_cifar(path: str):
    """Load the CIFAR-10 binary layout from a directory.

    Returns (train, test) with 50000/10000 images scaled into [0,1].
    """
    return tuple(_load_files(path, names, CIFAR10_FILE_RECORDS)
                 for names in (CIFAR10_TRAIN_FILES, CIFAR10_TEST_FILES))


def cifar_available(path: str) -> bool:
    return bool(path) and all(os.path.exists(os.path.join(path, n))
                              for n in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES)


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


def sample_erase_box(h: int, w: int, rng: np.random.Generator):
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
    that order, so rows do not depend on batch boundaries."""
    m = len(dataset)
    _, c, h, w = dataset.images.shape
    p = CROP_PAD
    padded = np.zeros((len(indices), c, h + 2 * p, w + 2 * p), dtype=np.float32)
    out = np.empty((len(indices), c, h, w), dtype=np.float32)
    boxes = []
    for row, idx in enumerate(indices):
        stream = seeded_rng(seed, epoch * m + int(idx))
        padded[row, :, p:p + h, p:p + w] = dataset.images[int(idx)]
        top = int(stream.integers(0, 2 * p + 1))
        left = int(stream.integers(0, 2 * p + 1))
        crop = padded[row, :, top:top + h, left:left + w]
        out[row] = crop[:, :, ::-1] if stream.random() < FLIP_PROB else crop
        if stream.random() < ERASE_PROB:
            box = sample_erase_box(h, w, stream)
            if box is not None:
                noise = stream.uniform(0.0, 1.0, (c,) + box[2:]).astype(np.float32)
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
    rng = seeded_rng(seed, 31)
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
