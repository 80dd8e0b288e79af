"""Differentiable layers with explicit forward and backward passes.

Every layer caches what its backward pass needs during a training-mode
``forward`` and must not be asked for gradients before running it.
Convolution uses the cross-correlation convention (no kernel flip).
Parameters are plain numpy arrays owned by the layer and updated in place
by the optimizer; activations passed between layers are read-only.

Convolution stays in NCHW throughout: im2col copies each sample's windows
into a (C*k*k, Ho*Wo) matrix, forward and both backward products are one
GEMM per sample, and col2im adds the input gradient back by k*k strided
slices.  The im2col matrix is recomputed in backward, not cached (see
``Conv2d``).  A gradient that is non-zero at one output position per
(sample, channel), as behind a global max pool, takes
``Conv2d.backward_at`` instead: it reads only those windows.

Weight init is fan-in-scaled uniform (bound sqrt(6/fan_in)) for conv and
linear; batchnorm starts at gamma=1, beta=0.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import ContractError, ShapeError
from .rng import SeededRng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """ln(1 + exp(x)) computed without overflow; positive for all finite x
    that do not underflow exp (|x| beyond ~745 in float64)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


class Layer:
    """Base of every node of the module tree, leaf layer or composite.

    A leaf fills ``params``/``grads`` with matching keys and overrides
    ``forward``/``backward``.  A composite names its sub-layers, in order
    and including the parameter-free ones, in ``children()``; its forward
    runs the children in that order and its backward runs them reversed.
    Composites override forward/backward only where the graph branches
    (``_ResidualUnit``, ``ConcatMergeBlock``, ``Model``) or where a child's
    gradient is known to be sparse (``ClassifierHead``'s backward), and
    forward only to name themselves in shape errors (``SetModule``,
    ``ClassifierHead``); they keep the default ``kind``.  Every backward
    returns dx.
    Parameters, gradients, buffers and the training flag are reached by
    one walk, ``modules()``, under qualified names such as
    ``set1.block0.conv0``.  A parent calls a child as ``child(x)`` and
    ``child.backprop(g)``, which run ``forward``/``backward`` and then, in
    ``with root.hooked(fn):``, report ``fn(name, layer, "fwd", output)`` or
    ``fn(name, layer, "bwd", dx)`` in execution order.  Training is not
    re-entrant: one forward's caches serve one backward, which takes them.
    An eval-mode call ``child(x)`` drops the cache its forward left, so eval
    holds no backward state and a backward after it raises.
    """

    kind = "composite"
    _hook = None

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.training = True
        self._cache = None

    def children(self) -> list[tuple[str, Layer]]:
        return []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = self.forward(x)
        if not self.training:
            self._cache = None
        return self.reported("fwd", out)

    def backprop(self, grad_out: np.ndarray) -> np.ndarray:
        return self.reported("bwd", self.backward(grad_out))

    def reported(self, direction: str, out: np.ndarray) -> np.ndarray:
        """Report ``out`` to the hook, if one is set, and return it; a
        parent that runs a child other than by ``child(x)`` or
        ``child.backprop(g)`` reports the result with this."""
        if self._hook is not None:
            self._hook(direction, out)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        for _, child in self.children():
            x = child(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for _, child in reversed(self.children()):
            grad_out = child.backprop(grad_out)
        return grad_out

    @contextmanager
    def hooked(self, fn):
        """Report every call of this layer and its descendants to ``fn``
        while the block runs; one hook per tree at a time."""
        named = self.modules()
        if any(layer._hook is not None for _, layer in named):
            raise ContractError("a hook is already set on this tree")
        for name, layer in named:
            layer._hook = partial(fn, name, layer)
        try:
            yield
        finally:
            for _, layer in named:
                del layer._hook

    def cost(self, n_out: int, flop_mode: int) -> int:
        """Forward FLOPs for ``n_out`` output elements: one op each.  Conv
        and linear count their multiply-accumulates instead, times
        ``flop_mode`` (1 or 2 FLOPs per MAC)."""
        return n_out

    def _need_cache(self):
        """Take the cache of the last forward; backward calls it once."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ContractError(f"{self.kind}: backward called without a new forward")
        return cache

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state that checkpoints must persist."""
        return {}

    # -- the tree ---------------------------------------------------------
    def modules(self, name: str = "") -> list[tuple[str, Layer]]:
        """(qualified name, layer) for this layer, then every descendant
        depth first in ``children()`` order."""
        out = [(name, self)]
        for sub, child in self.children():
            out += child.modules(f"{name}.{sub}" if name else sub)
        return out

    def _named(self, arrays) -> dict[str, np.ndarray]:
        return {f"{name}.{k}" if name else k: v
                for name, layer in self.modules() for k, v in arrays(layer).items()}

    def named_params(self) -> dict[str, np.ndarray]:
        return self._named(lambda layer: layer.params)

    def named_grads(self) -> dict[str, np.ndarray]:
        return self._named(lambda layer: layer.grads)

    def named_buffers(self) -> dict[str, np.ndarray]:
        return self._named(lambda layer: layer.buffers())

    def set_training(self, flag: bool):
        for _, layer in self.modules():
            layer.training = bool(flag)

    def zero_grads(self):
        for _, layer in self.modules():
            for k, p in layer.params.items():
                layer.grads[k] = np.zeros_like(p)


class Conv2d(Layer):
    """k x k cross-correlation, k in {1, 3}, with optional bias.

    Output spatial extent is floor((H + 2*pad - k)/stride) + 1; pad 1 with
    stride 1 and k=3 keeps the feature size fixed.

    Computed as one GEMM per sample in NCHW, so neither side needs a layout
    transpose.  im2col copies the padded input's windows into ``cols`` of
    shape (B, C*k*k, Ho*Wo), rows in the weight's (C, k, k) order; forward
    is W (Co, C*k*k) @ cols.  Backward recomputes ``cols`` from the cached
    padded input, accumulates dW = sum_b g_b @ cols_b^T (g = grad_out as
    (B, Co, Ho*Wo)), frees it, forms dcols = W^T @ g and adds it back into
    the padded dx by k*k strided slices (col2im).  ``cols`` is not cached:
    over mini_resnet multi's convs at batch 100 it would hold 98 MiB, where
    the cached padded inputs hold 24 MiB.

    ``backward_at`` is the backward for a gradient that is zero except at
    one output position per (sample, output channel): it gathers just those
    B*Co windows of the padded input, with no im2col and no GEMM.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, pad: int = 0, bias: bool = True,
                 rng: SeededRng | None = None, dtype=np.float32):
        super().__init__()
        if kernel_size not in (1, 3):
            raise ContractError(f"kernel size must be 1 or 3, got {kernel_size}")
        self.kind = f"conv{kernel_size}x{kernel_size}"
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        bound = np.sqrt(6.0 / fan_in)
        rng = rng if rng is not None else SeededRng(0)
        w = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size, kernel_size))
        self.params["weight"] = w.astype(dtype)
        if bias:
            self.params["bias"] = np.zeros(out_channels, dtype=dtype)
        self.zero_grads()

    def cost(self, n_out: int, flop_mode: int) -> int:
        return flop_mode * n_out * self.in_channels * self.kernel_size ** 2

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.pad
        if h + 2 * p < k or w + 2 * p < k:
            raise ShapeError(f"{self.kind}: input {h}x{w} too small for k={k}, pad={p}")
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.pad == 0:
            return x
        p = self.pad
        return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))

    def _im2col(self, xp: np.ndarray, ho: int, wo: int) -> np.ndarray:
        b, c = xp.shape[:2]
        k, s = self.kernel_size, self.stride
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))
        return cols.reshape(b, c * k * k, ho * wo)

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeError(f"{self.kind}: expected {self.in_channels} channels, got {c}")
        ho, wo = self.out_hw(h, w)
        xp = self._pad(x)
        wmat = self.params["weight"].reshape(self.out_channels, -1)
        out = np.matmul(wmat, self._im2col(xp, ho, wo))
        if "bias" in self.params:
            out += self.params["bias"][:, None]
        self._cache = (xp, ho, wo)
        return out.reshape(b, self.out_channels, ho, wo)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xp, ho, wo = self._need_cache()
        b, c = xp.shape[:2]
        k, s = self.kernel_size, self.stride
        w = self.params["weight"]
        g = grad_out.reshape(b, self.out_channels, ho * wo)
        cols = self._im2col(xp, ho, wo)
        self.grads["weight"] += np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        del cols
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=(0, 2, 3))
        dcols = np.matmul(w.reshape(self.out_channels, -1).T, g).reshape(b, c, k, k, ho, wo)
        dxp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcols[:, :, ki, kj]
        return self._crop(dxp)

    def backward_at(self, pos: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Backward for a grad_out that is ``g[b, co]`` at flat output index
        ``pos[b, co]`` (into Ho*Wo) and zero elsewhere; both are (B, Co).

        dW[co] = sum_b g[b, co] * window(b, pos[b, co]) of the padded input,
        and dx adds g[b, co] * W[co] into the same windows.  A (B, Co, C*k*k)
        table of flat indices into the padded input addresses every window
        element in the weight's (C, k, k) order; ``np.add.at`` sums where
        windows overlap."""
        xp, ho, wo = self._need_cache()
        b, c, hp, wp = xp.shape
        k, s = self.kernel_size, self.stride
        w = self.params["weight"]
        i, j = np.divmod(pos, wo)
        corner = np.arange(b)[:, None] * (c * hp * wp) + i * (s * wp) + j * s
        offset = (np.arange(c)[:, None, None] * (hp * wp)
                  + np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)
        flat = corner[:, :, None] + offset
        windows = xp.reshape(-1).take(flat)
        self.grads["weight"] += np.einsum("bo,bok->ok", g, windows).reshape(w.shape)
        del windows
        if "bias" in self.params:
            self.grads["bias"] += g.sum(axis=0)
        dxp = np.zeros(xp.size, dtype=xp.dtype)
        np.add.at(dxp, flat.reshape(-1), (g[:, :, None] * w.reshape(self.out_channels, -1)).reshape(-1))
        return self._crop(dxp.reshape(xp.shape))

    def _crop(self, dxp: np.ndarray) -> np.ndarray:
        p = self.pad
        return np.ascontiguousarray(dxp[:, :, p:-p, p:-p]) if p else dxp


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; ties route to the lowest linear index."""

    kind = "maxpool2x2"

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        if h < 2 or w < 2:
            raise ShapeError(f"maxpool2x2: spatial extents {h}x{w} below window")
        return (h - 2) // 2 + 1, (w - 2) // 2 + 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        ho, wo = self.out_hw(h, w)
        win = np.lib.stride_tricks.sliding_window_view(x, (2, 2), axis=(2, 3))
        win = win[:, :, ::2, ::2].reshape(b, c, ho, wo, 4)
        idx = np.argmax(win, axis=-1)
        out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, idx = self._need_cache()
        b, c, h, w = x_shape
        ho, wo = grad_out.shape[2], grad_out.shape[3]
        scat = np.zeros((b, c, ho, wo, 4), dtype=grad_out.dtype)
        np.put_along_axis(scat, idx[..., None], grad_out[..., None], axis=-1)
        dx = np.zeros(x_shape, dtype=grad_out.dtype)
        block = scat.reshape(b, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        dx[:, :, :2 * ho, :2 * wo] = block.reshape(b, c, 2 * ho, 2 * wo)
        return dx


class AdaptiveMaxPool(Layer):
    """Global spatial max per channel (fixed (1,1) output size).

    Works for any spatial extents, so score heads become independent of
    the input resolution.  Ties route to the lowest linear index.
    """

    kind = "adaptive_maxpool"

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        flat = x.reshape(b, c, h * w)
        idx = np.argmax(flat, axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)
        self._cache = (x.shape, idx)
        return np.ascontiguousarray(out.reshape(b, c, 1, 1))

    def argmax(self) -> np.ndarray:
        """(B, C) flat H*W index of each channel's max in the last forward,
        left cached for ``backward``."""
        if self._cache is None:
            raise ContractError(f"{self.kind}: no forward to read the argmax of")
        return self._cache[1]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, idx = self._need_cache()
        b, c, h, w = x_shape
        dx = np.zeros((b, c, h * w), dtype=grad_out.dtype)
        np.put_along_axis(dx, idx[..., None], grad_out.reshape(b, c, 1), axis=-1)
        return dx.reshape(x_shape)


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (batch, height, width).

    Train mode normalizes by batch statistics and moves the running
    statistics toward them by ``MOMENTUM``; eval mode is a pure function
    of the running statistics.  Variance uses the 1/M convention both for
    normalization and for the running buffer; ``EPS`` guards its root.

    Each per-channel reduction (the mean, the centred second moment,
    dbeta, dgamma) views its operands as (B, C, H*W) rows and sums the
    contiguous last axis first; a sum of products goes through ``einsum``,
    which forms no temporary.  Train-mode dx reuses dbeta and dgamma as the
    two sums it needs.
    """

    kind = "batchnorm2d"
    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.params["gamma"] = np.ones(channels, dtype=dtype)
        self.params["beta"] = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.zero_grads()

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"batchnorm2d: expected {self.channels} channels, got {c}")
        gamma = self.params["gamma"].reshape(1, c, 1, 1)
        beta = self.params["beta"].reshape(1, c, 1, 1)
        m = b * h * w
        if self.training:
            rows = x.reshape(b, c, h * w)
            mean = rows.sum(axis=2).sum(axis=0) / m
            xc = rows - mean[:, None]
            var = np.einsum("bcl,bcl->c", xc, xc) / m
            mo = self.MOMENTUM
            self.running_mean += mo * (mean.astype(self.running_mean.dtype) - self.running_mean)
            self.running_var += mo * (var.astype(self.running_var.dtype) - self.running_var)
            invstd = 1.0 / np.sqrt(var + self.EPS)
            xc *= invstd[:, None]
            xhat = xc.reshape(x.shape)
        else:
            invstd = 1.0 / np.sqrt(self.running_var + self.EPS)
            xhat = (x - self.running_mean.reshape(1, c, 1, 1)) * invstd.reshape(1, c, 1, 1)
        self._cache = (xhat, invstd, m)
        return gamma * xhat + beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, invstd, m = self._need_cache()
        b, c = grad_out.shape[:2]
        g = grad_out.reshape(b, c, -1)
        xh = xhat.reshape(b, c, -1)
        dbeta = g.sum(axis=2).sum(axis=0)
        dgamma = np.einsum("bcl,bcl->c", g, xh)
        self.grads["beta"] += dbeta
        self.grads["gamma"] += dgamma
        gamma = self.params["gamma"]
        if not self.training:
            return grad_out * gamma.reshape(1, c, 1, 1) * invstd.reshape(1, c, 1, 1)
        # gamma*invstd * (g - mean(g) - xhat*mean(g*xhat)); the means are dbeta/m, dgamma/m
        dx = xh * (dgamma / m)[:, None]
        np.subtract(g, dx, out=dx)
        dx -= (dbeta / m)[:, None]
        dx *= (gamma * invstd)[:, None]
        return dx.reshape(grad_out.shape).astype(grad_out.dtype, copy=False)


class Linear(Layer):
    """Affine map x @ W + b, W (in_features, out_features), on the input
    flattened after the batch axis, (B, ...) -> (B, in_features); backward
    returns dx in the input's shape."""

    kind = "linear"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: SeededRng | None = None, dtype=np.float32):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        bound = np.sqrt(6.0 / in_features)
        rng = rng if rng is not None else SeededRng(0)
        w = rng.uniform(-bound, bound, (in_features, out_features))
        self.params["weight"] = w.astype(dtype)
        if bias:
            self.params["bias"] = np.zeros(out_features, dtype=dtype)
        self.zero_grads()

    def cost(self, n_out: int, flop_mode: int) -> int:
        return flop_mode * n_out * self.in_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 2 or np.prod(x.shape[1:]) != self.in_features:
            raise ShapeError(f"linear: expected {self.in_features} features, got {x.shape}")
        flat = x.reshape(x.shape[0], self.in_features)
        self._cache = (flat, x.shape)
        out = flat @ self.params["weight"]
        if "bias" in self.params:
            out = out + self.params["bias"]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        flat, x_shape = self._need_cache()
        self.grads["weight"] += flat.T @ grad_out
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=0)
        return (grad_out @ self.params["weight"].T).reshape(x_shape)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._need_cache()
        return grad_out * mask


class Softplus(Layer):
    """Smooth positive activation ln(1+exp(x)); derivative is the logistic."""

    kind = "softplus"

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        return softplus(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._need_cache()
        return grad_out * _sigmoid(x)
