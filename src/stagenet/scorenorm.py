"""Score normalizers, their derivatives, and the convergence predicate.

Two normalizers map a per-category score vector to comparable magnitudes:

* ``softmax``  -- L1 normalization of exp(x):  S_i = exp(x_i) / sum_k exp(x_k)
* ``l2_score`` -- L2 normalization of sqrt(exp(x)), which simplifies to
  L_i = sqrt(S_i), so the squared outputs sum to one.

Both normalize the last axis, so a batch is a (B, N) array of score
rows.  Both are computed with max-subtraction so large scores cannot
overflow, and both reject non-finite scores with ``DomainError``; the
``*_unchecked`` kernels that ``heads.ScoreNorm`` runs skip that check.
The ``*_partial`` functions are the off-diagonal partial derivatives in
their published closed form (callers that backpropagate should use the
full Jacobians instead).  ``convergence_condition`` tests the regime in
which the L2 form's off-diagonal derivative dominates softmax's, which
reduces to S_i >= 1/4.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError

MIN_CATEGORIES = 2


def _check_scores(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64) if not isinstance(x, np.ndarray) else x
    if x.shape[-1] < MIN_CATEGORIES:
        raise ContractError(f"need at least {MIN_CATEGORIES} categories, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise DomainError("scores must be finite")
    return x


def softmax_unchecked(x: np.ndarray) -> np.ndarray:
    """``softmax`` without its input checks; non-finite in, non-finite out."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def l2_score_unchecked(x: np.ndarray) -> np.ndarray:
    """``l2_score`` without the input checks."""
    return np.sqrt(softmax_unchecked(x))


def softmax(x) -> np.ndarray:
    """Stabilized softmax of each row; rows sum to 1, entries in (0,1)."""
    return softmax_unchecked(_check_scores(x))


def l2_score(x) -> np.ndarray:
    """Square root of softmax; the squared entries of each row sum to 1."""
    return l2_score_unchecked(_check_scores(x))


def softmax_partial(x, i: int, j: int) -> float:
    """Off-diagonal partial dS_i/dx_j in closed form, equal to -S_i * S_j.

    The closed form is only stated for i != j; use ``jacobian_softmax``
    for the full matrix including the diagonal.
    """
    if i == j:
        raise ContractError("off-diagonal form needs i != j; use jacobian_softmax")
    s = softmax(np.asarray(x, dtype=np.float64))
    return float(-s[i] * s[j])


def l2score_partial(x, i: int, j: int) -> float:
    """Off-diagonal partial dL_i/dx_j in closed form, equal to -(1/2) L_i S_j."""
    if i == j:
        raise ContractError("off-diagonal form needs i != j; use jacobian_l2_score")
    xa = np.asarray(x, dtype=np.float64)
    s = softmax(xa)
    return float(-0.5 * np.sqrt(s[i]) * s[j])


def jacobian_softmax(x) -> np.ndarray:
    """Full Jacobian dS_i/dx_j = S_i (delta_ij - S_j), for backpropagation."""
    s = softmax(np.asarray(x, dtype=np.float64))
    return np.diag(s) - np.outer(s, s)


def jacobian_l2_score(x) -> np.ndarray:
    """Full Jacobian dL_i/dx_j = (1/2) L_i (delta_ij - S_j)."""
    s = softmax(np.asarray(x, dtype=np.float64))
    ell = np.sqrt(s)
    return 0.5 * ell[:, None] * (np.eye(len(s)) - s[None, :])


def softmax_vjp(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rowwise vector-Jacobian product for batched softmax outputs ``s``."""
    inner = np.sum(grad * s, axis=-1, keepdims=True)
    return s * (grad - inner)


def l2_score_vjp(ell: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rowwise vector-Jacobian product for batched L2-score outputs ``ell``."""
    s = ell * ell
    inner = np.sum(grad * ell, axis=-1, keepdims=True)
    return 0.5 * (grad * ell - s * inner)


def convergence_condition(x, i: int) -> bool:
    """True iff sum_k exp(x_k) <= 4 exp(x_i), i.e. softmax(x)_i >= 1/4.

    In this regime the L2 form's off-diagonal derivative is >= softmax's
    for every j != i, which is the faster-convergence condition.
    """
    s = softmax(np.asarray(x, dtype=np.float64))
    return bool(s[i] >= 0.25)


def lower_bound_ok(x, n_categories: int | None = None) -> bool:
    """True iff every score exceeds ln(N/4), the bound the condition needs.

    With N <= 4 the bound is non-positive, so any strictly positive score
    vector (e.g. anything downstream of softplus) satisfies it for free;
    with N > 4 positivity alone is not enough.
    """
    xa = _check_scores(np.asarray(x, dtype=np.float64))
    n = int(n_categories) if n_categories is not None else xa.shape[-1]
    return bool(np.min(xa) > np.log(n / 4.0))


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over rows of ``logits`` plus the fused logit gradient.

    Returns ``(loss, grad)`` where ``grad = (softmax(logits) - onehot) / B``,
    matching mean reduction over the batch.
    """
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= logits.shape[-1]):
        raise ContractError("label out of range")
    b = logits.shape[0]
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1))
    loss = float(np.mean(logsumexp - shifted[np.arange(b), labels]))
    probs = np.exp(shifted - logsumexp[:, None])
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return loss, grad.astype(logits.dtype)
