"""Central finite-difference checks for every backward pass.

The checker perturbs each scalar input in 64-bit precision and compares
the numerical gradient against the analytic backward.  The reported
error is max|analytic - numerical| normalized by the numerical
gradient's own scale (with a floor of 1), which stays meaningful when
individual entries are near zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import layers as L
from .rng import SeededRng

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


def check_layer(layer: L.Layer, x: np.ndarray, eps: float = DEFAULT_EPS,
                tol: float = DEFAULT_TOL, name: str | None = None,
                loss_weights: np.ndarray | None = None) -> list[CheckResult]:
    """Compare analytic input/parameter gradients against central differences.

    The scalar objective is sum(weights * forward(x)) with fixed random
    weights, which exercises every output element.  Returns one result for
    the input plus one per parameter.
    """
    name = name or layer.kind
    x = x.astype(np.float64)
    if loss_weights is None:
        loss_weights = SeededRng(99, 7).uniform(-1.0, 1.0, layer.forward(x.copy()).shape)

    def objective() -> float:
        return float(np.sum(loss_weights * layer.forward(x.copy())))

    results = []
    # analytic pass
    layer.zero_grads()
    out = layer.forward(x.copy())
    dx = layer.backward(loss_weights.astype(out.dtype))
    analytic_params = {k: v.copy() for k, v in layer.grads.items()}

    def f_of_x(xv: np.ndarray) -> float:
        return float(np.sum(loss_weights * layer.forward(xv)))

    num_dx = numerical_gradient(f_of_x, x, eps)
    results.append(CheckResult(f"{name}.input", relative_error(dx, num_dx), tol))

    for key, p in layer.params.items():
        def f_of_p(pv: np.ndarray, key=key) -> float:
            saved = layer.params[key]
            layer.params[key] = pv
            try:
                return objective()
            finally:
                layer.params[key] = saved
        num_dp = numerical_gradient(f_of_p, p.astype(np.float64), eps)
        results.append(CheckResult(f"{name}.{key}", relative_error(analytic_params[key], num_dp), tol))
    return results


def _layer_zoo(rng: SeededRng) -> list[tuple[L.Layer, tuple]]:
    """Small 64-bit instances of every layer kind, paired with input shapes."""
    f64 = np.float64
    zoo = [
        (L.Conv2d(2, 3, 3, stride=1, pad=1, bias=True, rng=rng, dtype=f64), (2, 2, 5, 5)),
        (L.Conv2d(3, 2, 3, stride=2, pad=1, bias=False, rng=rng, dtype=f64), (2, 3, 6, 6)),
        (L.Conv2d(3, 4, 1, stride=1, pad=0, bias=False, rng=rng, dtype=f64), (2, 3, 4, 4)),
        (L.MaxPool2x2(), (2, 2, 6, 6)),
        (L.AdaptiveMaxPool(), (2, 3, 5, 7)),
        (L.BatchNorm2d(3, dtype=f64), (4, 3, 4, 4)),
        (L.Linear(6, 4, bias=True, rng=rng, dtype=f64), (3, 6)),
        (L.ReLU(), (2, 3, 4, 4)),
        (L.Softplus(), (3, 5)),
    ]
    return zoo


def check_all_layers(seed: int = 0, eps: float = DEFAULT_EPS,
                     tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Gradient-check one instance of every layer kind on random data."""
    rng = SeededRng(seed, 1)
    data_rng = SeededRng(seed, 2)
    results = []
    for layer, shape in _layer_zoo(rng):
        x = data_rng.uniform(-2.0, 2.0, shape)
        results.extend(check_layer(layer, x, eps=eps, tol=tol))
    return results


def check_model(model, x: np.ndarray, eps: float = DEFAULT_EPS,
                tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Finite-difference check of a whole model's parameter gradients.

    ``model`` must expose forward(x, training)->output, backward(grad),
    named_params(), named_buffers(), and zero_grads(); the objective is a
    fixed random weighting of the output so every score participates.
    The training-mode forwards move batchnorm running statistics; every
    buffer is written back to its value on entry before returning.
    """
    x = x.astype(np.float64)
    saved_buffers = {k: v.copy() for k, v in model.named_buffers().items()}
    try:
        out0 = model.forward(x, training=True)[0]
        weights = SeededRng(7, 11).uniform(-1.0, 1.0, out0.shape)

        def objective() -> float:
            out = model.forward(x, training=True)[0]
            return float(np.sum(weights * out))

        model.zero_grads()
        model.forward(x, training=True)
        model.backward(weights)
        analytic = {k: v.copy() for k, v in model.named_grads().items()}

        results = []
        for key, p in model.named_params().items():
            def f_of_p(pv: np.ndarray, key=key, p=p) -> float:
                saved = p.copy()
                p[...] = pv
                try:
                    return objective()
                finally:
                    p[...] = saved
            num = numerical_gradient(f_of_p, p.astype(np.float64), eps)
            results.append(CheckResult(key, relative_error(analytic[key], num), tol))
        return results
    finally:
        for k, v in model.named_buffers().items():
            v[...] = saved_buffers[k]
