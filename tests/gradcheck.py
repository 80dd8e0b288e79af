"""Central finite-difference checks for every backward pass.

One driver checks any node, leaf, composite or whole model: it perturbs
the input and each ``named_params()`` scalar in 64-bit precision, compares
with the dx that ``backward`` returns and with ``named_grads()``, and
restores ``named_buffers()`` on exit.  The reported error is max|analytic
- numerical| normalized by the numerical gradient's own scale (with a
floor of 1), which stays meaningful when individual entries are near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from stagenet import layers as L
from stagenet.errors import ContractError
from stagenet.rng import seeded_rng

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = DEFAULT_EPS) -> np.ndarray:
    """Central differences of a scalar function, one probe per element."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numerical: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(numerical))), 1.0)
    return float(np.max(np.abs(analytic - numerical))) / scale


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<28s} max rel err {self.max_rel_err:.3e}  [{status}]"


def _check(node: L.Layer, run: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
           weights: np.ndarray | None, weight_stream: tuple, eps: float, tol: float,
           prefix: str) -> list[CheckResult]:
    """Check ``node``'s input gradient and its ``named_params()`` on
    sum(weights * run(x)), ``run`` giving its output.
    Missing weights are uniform draws from ``seeded_rng(*weight_stream)``.
    Params are perturbed in place, so they must be 64-bit."""
    if any(p.dtype != np.float64 for p in node.named_params().values()):
        raise ContractError("gradient checks perturb params in place; cast the node to float64")
    x = x.astype(np.float64)
    saved_buffers = {k: v.copy() for k, v in node.named_buffers().items()}
    try:
        if weights is None:
            weights = seeded_rng(*weight_stream).uniform(-1.0, 1.0, run(x.copy()).shape)

        def objective(xv: np.ndarray) -> float:
            return float(np.sum(weights * run(xv)))

        node.zero_grads()
        out = run(x.copy())
        dx = node.backward(weights.astype(out.dtype))
        analytic = {k: v.copy() for k, v in node.named_grads().items()}
        num_dx = numerical_gradient(objective, x, eps)
        results = [CheckResult(f"{prefix}input", relative_error(dx, num_dx), tol)]
        for key, p in node.named_params().items():
            def f_of_p(pv: np.ndarray, p=p) -> float:
                saved = p.copy()
                p[...] = pv
                try:
                    return objective(x.copy())
                finally:
                    p[...] = saved
            num = numerical_gradient(f_of_p, p, eps)
            results.append(CheckResult(f"{prefix}{key}", relative_error(analytic[key], num), tol))
        return results
    finally:
        for k, v in node.named_buffers().items():
            v[...] = saved_buffers[k]


def check_layer(layer: L.Layer, x: np.ndarray, eps: float = DEFAULT_EPS,
                tol: float = DEFAULT_TOL,
                loss_weights: np.ndarray | None = None) -> list[CheckResult]:
    """Check any node, leaf or composite, on ``layer.forward``: one result
    for the input, then one per ``named_params()`` entry, named
    ``<kind>.<key>``; ``loss_weights`` default to fixed random draws."""
    return _check(layer, layer.forward, x, loss_weights, (99, 7), eps, tol,
                  f"{layer.kind}.")


def _layer_zoo(rng: np.random.Generator) -> list[tuple[L.Layer, tuple]]:
    """Small 64-bit instances of every layer kind, paired with input shapes."""
    zoo = [
        (L.Conv2d(2, 3, 3, stride=1, pad=1, bias=True, rng=rng), (2, 2, 5, 5)),
        (L.Conv2d(3, 2, 3, stride=2, pad=1, bias=False, rng=rng), (2, 3, 6, 6)),
        (L.Conv2d(3, 4, 1, stride=1, pad=0, bias=False, rng=rng), (2, 3, 4, 4)),
        (L.MaxPool2x2(), (2, 2, 6, 6)),
        (L.AdaptiveMaxPool(), (2, 3, 5, 7)),
        (L.BatchNorm2d(3), (4, 3, 4, 4)),
        (L.Linear(6, 4, rng=rng), (3, 6)),
        (L.ReLU(), (2, 3, 4, 4)),
        (L.Softplus(), (3, 5)),
    ]
    return [(layer.astype(np.float64), shape) for layer, shape in zoo]


def check_all_layers(seed: int = 0, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Gradient-check one instance of every layer kind on random data."""
    rng = seeded_rng(seed, 1)
    data_rng = seeded_rng(seed, 2)
    results = []
    for layer, shape in _layer_zoo(rng):
        x = data_rng.uniform(-2.0, 2.0, shape)
        results.extend(check_layer(layer, x, tol=tol))
    return results


def check_model(model, x: np.ndarray) -> list[CheckResult]:
    """Check a model on its training-mode aggregate output, weighted by
    fixed random draws: results ``input`` and one per parameter name."""
    return _check(model, lambda xv: model.forward(xv, training=True)[0], x,
                  None, (7, 11), DEFAULT_EPS, DEFAULT_TOL, "")
