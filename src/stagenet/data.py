"""Dataset ingestion, augmentation, and synthetic data generation.

CIFAR binary records are one label byte (or coarse+fine pair for the
100-class variant) followed by 3072 channel-planar pixel bytes; decoded
pixels live in [0,1].  The train-time augmentation order is pad-and-crop,
horizontal flip, per-channel normalization, random erasing; evaluation
applies the normalization only.  Channel statistics always come from the
training split.

The synthetic dataset for deterministic desk-scale runs,
``striped_patterns``, assigns each class an oriented grating that only
convolutional features separate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, FormatError
from .rng import SeededRng

CIFAR_PIXELS = 3072
CIFAR10_RECORD = 1 + CIFAR_PIXELS
CIFAR100_RECORD = 2 + CIFAR_PIXELS

CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]
CIFAR100_TRAIN_FILES = ["train.bin"]
CIFAR100_TEST_FILES = ["test.bin"]

# random erasing draws its share of the image area, then its aspect ratio
ERASE_AREA, ERASE_ASPECT = (0.02, 0.33), (0.3, 3.3)
SYNTHETIC_NOISE = 0.25  # std of the Gaussian pixel noise on synthetic images


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


def parse_cifar_records(buf: bytes, variant: str) -> Dataset:
    """Decode a raw CIFAR batch buffer into a Dataset.

    The buffer must be a whole number of records; the fine label is used
    for the 100-class variant and any label byte >= N is a data error.
    """
    if variant == "cifar10":
        rec, n_classes, label_off = CIFAR10_RECORD, 10, 0
    elif variant == "cifar100-fine":
        rec, n_classes, label_off = CIFAR100_RECORD, 100, 1
    else:
        raise ContractError(f"unknown variant {variant!r}")
    if len(buf) == 0 or len(buf) % rec != 0:
        expected = (len(buf) // rec + 1) * rec if len(buf) else rec
        raise FormatError(
            f"byte count {len(buf)} is not a whole number of {rec}-byte records "
            f"(nearest whole size {expected})")
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, rec)
    labels = raw[:, label_off].astype(np.int64)
    if np.any(labels >= n_classes):
        bad = int(labels[labels >= n_classes][0])
        raise DataError(f"label byte {bad} out of range for {n_classes} classes")
    pixels = raw[:, rec - CIFAR_PIXELS:].reshape(-1, 3, 32, 32)
    images = pixels.astype(np.float32) / 255.0
    return Dataset(images, labels, n_classes)


def encode_cifar_records(dataset: Dataset, variant: str) -> bytes:
    """Inverse of ``parse_cifar_records`` (coarse byte written as 0)."""
    n = len(dataset)
    pixels = np.round(dataset.images * 255.0).astype(np.uint8).reshape(n, CIFAR_PIXELS)
    labels = dataset.labels.astype(np.uint8).reshape(n, 1)
    if variant == "cifar10":
        rows = np.concatenate([labels, pixels], axis=1)
    elif variant == "cifar100-fine":
        rows = np.concatenate([np.zeros_like(labels), labels, pixels], axis=1)
    else:
        raise ContractError(f"unknown variant {variant!r}")
    return rows.tobytes()


def _load_files(root: str, names: list[str], variant: str, expect_each: int) -> Dataset:
    parts = []
    rec = CIFAR10_RECORD if variant == "cifar10" else CIFAR100_RECORD
    for name in names:
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise FormatError(f"missing dataset file {path}")
        with open(path, "rb") as fh:
            buf = fh.read()
        if len(buf) != expect_each * rec:
            raise FormatError(
                f"{path}: expected {expect_each * rec} bytes "
                f"({expect_each} records), got {len(buf)}")
        parts.append(parse_cifar_records(buf, variant))
    images = np.concatenate([p.images for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    return Dataset(images, labels, parts[0].n_classes)


def load_cifar(path: str, variant: str = "cifar10"):
    """Load the canonical binary layout from a directory.

    Returns (train, test) with 50000/10000 images scaled into [0,1].
    """
    if variant == "cifar10":
        train = _load_files(path, CIFAR10_TRAIN_FILES, variant, 10000)
        test = _load_files(path, CIFAR10_TEST_FILES, variant, 10000)
    elif variant == "cifar100-fine":
        train = _load_files(path, CIFAR100_TRAIN_FILES, variant, 50000)
        test = _load_files(path, CIFAR100_TEST_FILES, variant, 10000)
    else:
        raise ContractError(f"unknown variant {variant!r}")
    return train, test


def cifar_available(path: str, variant: str = "cifar10") -> bool:
    names = (CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES if variant == "cifar10"
             else CIFAR100_TRAIN_FILES + CIFAR100_TEST_FILES)
    return bool(path) and all(os.path.exists(os.path.join(path, n)) for n in names)


# --------------------------------------------------------------------------
# augmentation
# --------------------------------------------------------------------------

@dataclass
class AugmentPolicy:
    """Train-time augmentation parameters; construction validates ranges."""
    crop_pad: int = 4
    flip_prob: float = 0.5
    mean: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.float32))
    std: np.ndarray = field(default_factory=lambda: np.ones(3, dtype=np.float32))
    erase_prob: float = 0.5

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float32).reshape(3)
        self.std = np.asarray(self.std, dtype=np.float32).reshape(3)
        if not (0.0 <= self.flip_prob <= 1.0 and 0.0 <= self.erase_prob <= 1.0):
            raise ContractError("probabilities must lie in [0,1]")
        if self.crop_pad < 0:
            raise ContractError("crop pad must be >= 0")
        if np.any(self.std <= 0):
            raise ContractError("normalization std must be positive")


def channel_stats(images: np.ndarray):
    """Per-channel mean/std over a training split (std floored at 1e-6)."""
    mean = images.mean(axis=(0, 2, 3))
    std = np.maximum(images.std(axis=(0, 2, 3)), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def normalize_image(pixels: np.ndarray, policy: AugmentPolicy) -> np.ndarray:
    return (pixels - policy.mean[:, None, None]) / policy.std[:, None, None]


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


def augment(px: np.ndarray, policy: AugmentPolicy, rng: SeededRng) -> np.ndarray:
    """Pad-and-crop, flip, normalize, erase one (3,H,W) image; shape kept."""
    c, h, w = px.shape
    if policy.crop_pad > 0:
        p = policy.crop_pad
        padded = np.pad(px, ((0, 0), (p, p), (p, p)))
        top = int(rng.integers(0, 2 * p + 1))
        left = int(rng.integers(0, 2 * p + 1))
        px = padded[:, top:top + h, left:left + w]
    if policy.flip_prob > 0 and rng.random() < policy.flip_prob:
        px = px[:, :, ::-1]
    px = normalize_image(px, policy)
    if policy.erase_prob > 0 and rng.random() < policy.erase_prob:
        box = sample_erase_box(h, w, rng)
        if box is not None:
            top, left, eh, ew = box
            noise = rng.uniform(0.0, 1.0, (c, eh, ew), dtype=px.dtype)
            px = px.copy()
            px[:, top:top + eh, left:left + ew] = (
                (noise - policy.mean[:, None, None]) / policy.std[:, None, None])
    return np.ascontiguousarray(px, dtype=np.float32)


def augment_batch(dataset: Dataset, indices: np.ndarray, policy: AugmentPolicy,
                  seed: int, epoch: int) -> np.ndarray:
    """Augment the selected samples; stream (seed, epoch*M + index) per image
    so results do not depend on batch boundaries or worker layout."""
    m = len(dataset)
    out = np.empty((len(indices),) + dataset.images.shape[1:], dtype=np.float32)
    base = SeededRng(seed)
    for row, idx in enumerate(indices):
        stream = base.split(epoch * m + int(idx))
        out[row] = augment(dataset.images[int(idx)], policy, stream)
    return out


def normalize_batch(images: np.ndarray, policy: AugmentPolicy) -> np.ndarray:
    return ((images - policy.mean[None, :, None, None])
            / policy.std[None, :, None, None]).astype(np.float32)


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
    if n_samples == 0:
        shape = (0, 3, image_size, image_size)
        return Dataset(np.zeros(shape, np.float32), np.zeros(0, np.int64), n_classes)
    rng = SeededRng(seed, 31)
    labels = rng.integers(0, n_classes, (n_samples,)).astype(np.int64)
    images = _striped_patterns(labels, n_classes, image_size, rng)
    return Dataset(np.clip(images, 0.0, 1.0).astype(np.float32), labels, n_classes)


def _striped_patterns(labels, n_classes, size, rng):
    # each class is an oriented sinusoidal grating; phase and amplitude
    # jitter per sample keep the task convolutional rather than template
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    angles = np.pi * np.arange(n_classes) / n_classes
    freqs = 2.0 + (np.arange(n_classes) % 3)
    n = len(labels)
    phases = rng.uniform(0.0, 2 * np.pi, (n,))
    amps = rng.uniform(0.8, 1.2, (n,))
    images = np.empty((n, 3, size, size))
    for i, lab in enumerate(labels):
        theta = angles[lab]
        wave = np.cos(2 * np.pi * freqs[lab]
                      * (xx * np.cos(theta) + yy * np.sin(theta)) / size + phases[i])
        base = 0.5 + 0.4 * amps[i] * wave
        images[i] = base[None, :, :]
    images += rng.normal(0.0, SYNTHETIC_NOISE, images.shape)
    return images

