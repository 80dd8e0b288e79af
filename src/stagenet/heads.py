"""Per-stage classifier heads and the score aggregation rule.

A head turns one stage's feature map into a length-N score vector:
3x3 conv to the target channel width (zero-padded, bias-free), global
adaptive max pool to (1,1), batch normalization, a single linear layer
(which flattens the pooled feature), softplus (so raw scores stay
positive), then a score normalizer.  The default normalizer is the L2
form; softmax is available for ablations.  A head's forward is the plain
chain of these children.  Its backward knows that the global max pool
passes gradient to one conv output per (sample, channel), so the conv
backpropagates only at the pool's argmax (``Conv2d.backward_at``).

A model with T stages carries exactly T heads, and the model's output is
the plain sum of the per-head score vectors, entry by entry.
"""

from __future__ import annotations

import numpy as np

from . import scorenorm
from .errors import ContractError, ShapeError
from .layers import AdaptiveMaxPool, BatchNorm2d, Conv2d, Layer, Linear, Softplus

# normalizer name -> (layer kind, forward, vector-Jacobian product)
NORMALIZERS = {
    "l2": ("l2_score", scorenorm.l2_score, scorenorm.l2_score_vjp),
    "softmax": ("softmax", scorenorm.softmax, scorenorm.softmax_vjp),
}


class ScoreNorm(Layer):
    """Row-wise score normalizer: the L2 score (square root of softmax) or
    softmax itself.  Like every layer it passes non-finite values on: the
    training loop names the first non-finite output (``NumericsError``)."""

    def __init__(self, normalizer: str):
        super().__init__()
        if normalizer not in NORMALIZERS:
            raise ContractError(
                f"normalizer must be one of {tuple(NORMALIZERS)}, got {normalizer!r}")
        self.kind, self._fn, self._vjp = NORMALIZERS[normalizer]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self._fn(x)
        return self._keep(out, out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._need_cache(grad_out)
        return self._vjp(out, grad_out).astype(out.dtype)


class ClassifierHead(Layer):
    """conv -> pool -> bn -> fc -> softplus -> normalizer on stage t's feature.

    Forward runs the chain.  Backward runs it reversed down to the pool,
    which runs no backward: it hands over its argmax, and the conv takes
    the pooled gradient at those positions.
    """

    def __init__(self, t: int, in_channels: int, target_channels: int,
                 n_classes: int, normalizer: str, rng: np.random.Generator):
        super().__init__()
        if n_classes < 2:
            raise ContractError("need at least 2 categories")
        self.t = t
        self.add("conv", Conv2d(in_channels, target_channels, 3, stride=1, pad=1,
                                bias=False, rng=rng))
        self.add("pool", AdaptiveMaxPool())
        self.add("bn", BatchNorm2d(target_channels))
        self.add("fc", Linear(target_channels, n_classes, rng=rng))
        self.add("act", Softplus())
        self.add("norm", ScoreNorm(normalizer))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for child in (self.norm, self.act, self.fc, self.bn):
            grad_out = child.backprop(grad_out)
        pos = self.pool.take_argmax(grad_out)
        return self.conv.reported("bwd", self.conv.backward_at(pos, grad_out.reshape(pos.shape)))


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
