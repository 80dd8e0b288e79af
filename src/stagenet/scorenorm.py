"""Score normalizers, their vector-Jacobian products, and the loss.

Two normalizers map each row of a (B, N) score array, its last axis, to
comparable magnitudes:

* ``softmax``  -- L1 normalization of exp(x):  S_i = exp(x_i) / sum_k exp(x_k)
* ``l2_score`` -- L2 normalization of sqrt(exp(x)), which simplifies to
  L_i = sqrt(S_i), so the squared outputs sum to one.

Both subtract the row maximum, so large scores cannot overflow; a
non-finite score gives non-finite outputs, which the training loop names
(``NumericsError``).  ``heads.ScoreNorm`` runs them with their ``*_vjp``,
and the training loop calls ``batch_cross_entropy``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


def softmax(x: np.ndarray) -> np.ndarray:
    """Stabilized softmax of each row; rows sum to 1, entries in [0,1]."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def l2_score(x: np.ndarray) -> np.ndarray:
    """Square root of softmax; the squared entries of each row sum to 1."""
    return np.sqrt(softmax(x))


def softmax_vjp(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rowwise vector-Jacobian product for batched softmax outputs ``s``."""
    inner = np.sum(grad * s, axis=-1, keepdims=True)
    return s * (grad - inner)


def l2_score_vjp(ell: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rowwise vector-Jacobian product for batched L2-score outputs ``ell``."""
    s = ell * ell
    inner = np.sum(grad * ell, axis=-1, keepdims=True)
    return 0.5 * (grad * ell - s * inner)


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over rows of ``logits`` (B, N) plus the fused
    logit gradient, for integer ``labels`` of shape (B,) in [0, N).

    Returns ``(loss, grad)`` where ``grad = (softmax(logits) - onehot) / B``,
    matching mean reduction over the batch.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must have shape (B, N), got shape {logits.shape}")
    labels = np.asarray(labels)
    b = logits.shape[0]
    if labels.shape != (b,) or labels.dtype.kind not in "iu":
        raise ShapeError(f"labels must be integers of shape ({b},), "
                         f"got {labels.dtype} of shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= logits.shape[-1]):
        raise ContractError("label out of range")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1))
    loss = float(np.mean(logsumexp - shifted[np.arange(b), labels]))
    probs = np.exp(shifted - logsumexp[:, None])
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return loss, grad.astype(logits.dtype)
