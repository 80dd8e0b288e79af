"""Per-stage classifier heads and the score aggregation rule.

A head turns one stage's feature map into a length-N score vector:
3x3 conv to the target channel width (zero-padded, bias-free), global
adaptive max pool to (1,1), batch normalization, a single linear layer
(which flattens the pooled feature), softplus (so raw scores stay
positive), then a score normalizer.  The default normalizer is the L2
form; softmax is available for ablations.  A head is a plain chain of
these children; it only checks its input, so shape errors name head t.

A model with T stages carries exactly T heads, and the model's output is
the plain sum of the per-head score vectors, entry by entry.
"""

from __future__ import annotations

import numpy as np

from . import scorenorm
from .errors import ContractError, ShapeError
from .layers import AdaptiveMaxPool, BatchNorm2d, Conv2d, Layer, Linear, Softplus
from .rng import SeededRng

# normalizer name -> (layer kind, forward, vector-Jacobian product)
NORMALIZERS = {
    "l2": ("l2_score", scorenorm.l2_score_unchecked, scorenorm.l2_score_vjp),
    "softmax": ("softmax", scorenorm.softmax_unchecked, scorenorm.softmax_vjp),
}


class ScoreNorm(Layer):
    """Row-wise score normalizer: the L2 score (square root of softmax) or
    softmax itself.  Unchecked like every layer: the training loop names
    the first non-finite output (``NumericsError``)."""

    def __init__(self, normalizer: str = "l2"):
        super().__init__()
        if normalizer not in NORMALIZERS:
            raise ContractError(
                f"normalizer must be one of {tuple(NORMALIZERS)}, got {normalizer!r}")
        self.kind, self._fn, self._vjp = NORMALIZERS[normalizer]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self._fn(x)
        self._cache = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._need_cache()
        return self._vjp(out, grad_out).astype(out.dtype)


class ClassifierHead(Layer):
    """conv -> pool -> bn -> fc -> softplus -> normalizer on stage t's feature."""

    def __init__(self, t: int, in_channels: int, target_channels: int,
                 n_classes: int, normalizer: str = "l2",
                 rng: SeededRng | None = None, dtype=np.float32):
        super().__init__()
        if n_classes < 2:
            raise ContractError("need at least 2 categories")
        self.t = t
        self.in_channels = in_channels
        self.target_channels = target_channels
        self.norm = ScoreNorm(normalizer)
        rng = rng if rng is not None else SeededRng(0)
        self.conv = Conv2d(in_channels, target_channels, 3, stride=1, pad=1,
                           bias=False, rng=rng, dtype=dtype)
        self.pool = AdaptiveMaxPool()
        self.bn = BatchNorm2d(target_channels, dtype=dtype)
        self.fc = Linear(target_channels, n_classes, bias=True, rng=rng, dtype=dtype)
        self.act = Softplus()

    def children(self):
        return [("conv", self.conv), ("pool", self.pool), ("bn", self.bn),
                ("fc", self.fc), ("act", self.act), ("norm", self.norm)]

    def forward(self, h_t: np.ndarray) -> np.ndarray:
        if h_t.ndim != 4 or h_t.shape[1] != self.in_channels:
            raise ShapeError(
                f"head {self.t}: expected (B,{self.in_channels},H,W), got {h_t.shape}")
        return super().forward(h_t)


def aggregate_scores(per_head: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of head outputs, in list order."""
    if not per_head:
        raise ContractError("aggregate_scores needs at least one head output")
    first = np.asarray(per_head[0])
    total = first.copy()
    for c in per_head[1:]:
        arr = np.asarray(c)
        if arr.shape != first.shape:
            raise ShapeError(f"head output shapes differ: {arr.shape} vs {first.shape}")
        total += arr
    return total


def predict(aggregate: np.ndarray) -> np.ndarray:
    """Per-row argmax with ties going to the lowest index."""
    return np.argmax(np.asarray(aggregate), axis=-1).astype(np.int64)
