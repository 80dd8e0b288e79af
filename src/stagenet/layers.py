"""Differentiable layers with explicit forward and backward passes.

Every layer caches what its backward pass needs during a training-mode
``forward`` and must not be asked for gradients before running it.
Convolution uses the cross-correlation convention (no kernel flip).
Parameters are plain numpy arrays owned by the layer and updated in place
by the optimizer; activations passed between layers are read-only.

Convolution takes and returns NCHW; forward and both backward products
are one GEMM per sample on an im2col matrix.  Inside, two choices keep its
data movement in long contiguous runs, in cache:
- a stride-phase layout.  The padded input is split into its s x s stride
  phases (the inverse of the sub-pixel shuffle, Shi et al.,
  arXiv:1609.05158) and each plane is flattened with rows Wq = Wo +
  (k-1)//s wide, so every tap's window reads, for every output at once,
  one contiguous slice of one phase.  Output rows are computed Wq wide and
  cropped.  A copy or add over windows, Wo = 4-32 elements per row, runs
  several times slower in numpy than over one long slice;
- sample blocks.  The batch runs in blocks whose im2col matrices fit in
  ``BLOCK_BYTES`` (after Goto & van de Geijn, ACM TOMS 2008), where a
  full-batch matrix reaches 29.5 MB; a block's phase copy, im2col copies,
  GEMMs and col2im adds then work in L2.
Each im2col copy and each col2im add is one slice per tap and block (see
``Conv2d``).  A gradient that is non-zero at one output position per
(sample, channel), as behind a global max pool, takes
``Conv2d.backward_at`` instead: it reads only those windows.

What a layer caches for backward is what it cannot get back cheaply, and
an array it shares by reference where it can: ``Conv2d`` keeps its input
and rebuilds the padded phase layout per block in backward (the trade of
Chen et al., arXiv:1604.06174, at the scale of one block), ``ReLU`` keeps
its output, which the next layer reads anyway, and ``MaxPool2x2`` keeps
its input and output.  So each stage output is held once, however many
layers read it: in ``multi`` mode the next stage and the stage's head.
This rests on activations being read-only: no layer writes into its input
or into an output it returned.

``MaxPool2x2`` copies no windows either: forward is three elementwise
maxima over the input's four strided corner views, and backward routes by
comparing the corners with the cached output, so no index array is kept.

Every layer builds its params and buffers in float32.  ``Layer.astype``
casts a built tree (float64 for the finite-difference checks).  Weight
init is fan-in-scaled uniform (bound sqrt(6/fan_in), ``_init_weight``) for
conv and linear; batchnorm starts at gamma=1, beta=0.

Composites (``backbones``, ``heads``) are built from these layers with
``Layer.add``, which names each child once, in execution order.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import ContractError, ShapeError
from .rng import seeded_rng

# bytes of the im2col matrices of one block of conv samples.  Over the
# mini presets' conv shapes at batch 100, forward plus backward was fastest
# from 512 KiB to 2 MiB, and slower at 256 KiB and 4 MiB, on a Xeon with
# 2 MiB of L2 per core
BLOCK_BYTES = 1 << 20


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


def _init_weight(rng: np.random.Generator | None, fan_in: int, shape: tuple) -> np.ndarray:
    """Float32 weights of ``shape`` drawn uniform in +-sqrt(6/fan_in), from
    ``rng`` or else from ``seeded_rng(0)``."""
    bound = np.sqrt(6.0 / fan_in)
    rng = rng if rng is not None else seeded_rng(0)
    return rng.uniform(-bound, bound, shape).astype(np.float32)


def _check_nchw(layer, x: np.ndarray) -> tuple[int, int, int, int]:
    """``x.shape`` of a (B,C,H,W) input; ``ShapeError`` naming ``layer`` otherwise."""
    if x.ndim != 4:
        raise ShapeError(f"{layer.where}: expected (B,C,H,W), got {x.shape}")
    return x.shape


class Layer:
    """Base of every node of the module tree, leaf layer or composite.

    A leaf fills ``params``/``grads`` with matching keys and overrides
    ``forward``/``backward``.  A composite declares each sub-layer once,
    including the parameter-free ones, with ``self.add(name, child)`` in
    execution order: that binds ``self.<name>`` and lists the pair in
    ``children()``.  Its forward runs the children in that order and its
    backward runs them reversed.
    Composites override forward/backward only where the graph branches
    (``_ResidualUnit`` and ``Model``) or where a child's gradient is known
    to be sparse (``ClassifierHead``'s backward); they keep the default
    ``kind``.  Every backward returns dx.  A leaf's forward keeps what its
    backward needs with ``_keep``, and its backward takes that with
    ``_need_cache(grad_out)``, which rejects a gradient whose shape is not
    the output's.
    Parameters, gradients, buffers (non-trainable state that checkpoints
    persist, in the ``buffers`` dict) and the training flag are reached by
    one walk, ``modules()``, under qualified names such as
    ``set1.conv0``; ``astype`` casts them all (every layer starts
    in float32).  ``Model`` writes each node's qualified name into its
    ``name`` (``None`` outside a model); a node's errors start with that
    name, or with its ``kind`` outside a model.  A parent calls a child as
    ``child(x)`` and ``child.backprop(g)``, which run ``forward``/
    ``backward`` and then, in ``with root.hooked(fn):``, report
    ``fn(name, layer, "fwd", output)`` or ``fn(name, layer, "bwd", dx)`` in
    execution order: each node reports each forward and each backward it
    runs (a head's pool runs no backward).  Training is not
    re-entrant: one forward's caches serve one backward, which takes them.
    An eval-mode call ``child(x)`` drops the cache its forward left, so eval
    holds no backward state and a backward after it raises.
    """

    kind = "composite"
    name: str | None = None
    _hook = None

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.training = True
        self._cache = None
        self._children: list[tuple[str, Layer]] = []

    def add(self, name: str, child: Layer) -> Layer:
        """Bind ``child`` as ``self.<name>`` and list it as the next child;
        returns the child."""
        setattr(self, name, child)
        self._children.append((name, child))
        return child

    def children(self) -> list[tuple[str, Layer]]:
        return self._children

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
        while the block runs; one hook per tree at a time.  A node is
        reported by its ``name`` once a model has set it, so a model's
        subtree reports the names its errors carry; a standalone tree
        reports names relative to this layer."""
        named = self.modules()
        if any(layer._hook is not None for _, layer in named):
            raise ContractError("a hook is already set on this tree")
        for name, layer in named:
            layer._hook = partial(fn, name if layer.name is None else layer.name, layer)
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

    @property
    def where(self) -> str:
        """The prefix of this node's errors: its name, or its kind outside a model."""
        return self.name or self.kind

    def _keep(self, cache, out: np.ndarray) -> np.ndarray:
        """Keep ``cache`` for backward, and the shape of ``out``; returns ``out``."""
        self._cache, self._out_shape = cache, out.shape
        return out

    def _need_cache(self, grad_out: np.ndarray | None = None):
        """Take the cache of the last forward; backward calls it once.  A
        ``grad_out`` must have that forward's output shape (``ShapeError``)."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ContractError(f"{self.where}: backward called without a new forward")
        if grad_out is not None and grad_out.shape != self._out_shape:
            raise ShapeError(f"{self.where}: gradient of shape {grad_out.shape} "
                             f"for an output of shape {self._out_shape}")
        return cache

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
        return self._named(lambda layer: layer.buffers)

    def set_training(self, flag: bool):
        for _, layer in self.modules():
            layer.training = bool(flag)

    def zero_grads(self):
        for _, layer in self.modules():
            for k, p in layer.params.items():
                layer.grads[k] = np.zeros_like(p)

    def astype(self, dtype) -> Layer:
        """Cast every param and buffer of the tree to ``dtype`` and zero the
        grads; returns self."""
        for _, layer in self.modules():
            for arrays in (layer.params, layer.buffers):
                for k, v in arrays.items():
                    arrays[k] = v.astype(dtype)
        self.zero_grads()
        return self


class Conv2d(Layer):
    """k x k cross-correlation, k in {1, 3}, with optional bias.

    Output spatial extent is floor((H + 2*pad - k)/stride) + 1; pad 1 with
    stride 1 and k=3 keeps the feature size fixed.

    Cache.  Forward caches its input by reference: activations are
    read-only, and the layer before holds that array anyway (a ``ReLU``
    caches its output, a residual unit's input is its skip), so the cache
    costs nothing.  Each of forward, backward and ``backward_at`` rebuilds
    the layout below one block at a time, in a scratch of one block that
    lives for the call; no full-batch padded array exists.  Cached instead,
    the padded layout would hold 24 MiB over mini_resnet multi's convs at
    batch 100; rebuilt, it costs one block-sized copy per block, in cache.

    Layout.  The zero-padded input is split into its s x s stride phases:
    phase (a, b) holds padded rows a, a+s, ... and columns b, b+s, ...; for
    s=1 it is the padded image.  Only the phases some tap reads are built
    (one for k=1 at any stride), and only the rows and columns some window
    reads.  With e = (k-1)//s, each (sample, channel) plane of a phase is
    Hq x Wq = (Ho+e) x (Wo+e) (Wq = ceil(Wp/s)), flattened to L = Hq*Wq.
    Tap (ki, kj) reads phase (ki%s, kj%s) from offset ``(ki//s)*Wq + kj//s``
    of each plane on: output rows are computed Wq wide, and the Wq - Wo
    extra columns are dropped from the output and zero in the gradient.

    Blocks.  The batch runs in blocks of the most samples whose im2col
    matrices, (C*k*k, L) each, fit in ``BLOCK_BYTES``.  The scratch holds a
    block's phases, (phases, C*block*L + slack): the planes of a phase are
    stored channel-major, (C, block, L), and each phase ends in e*(Wq+1)
    zeros of slack, so a tap's reads for the whole block are one contiguous
    slice; a read that runs past a plane lands in a column or row whose
    output is dropped.  The copy into the scratch writes the same elements
    for every block of one size, so the padding stays zero; the partial last
    block gets a zeroed scratch of its own.  Per block:
    - forward copies each tap's slice into its rows of ``cols``
      (C, k*k, block*L) and computes W @ cols per sample, over the first
      Ho*Wq columns of each plane;
    - backward rebuilds the phases and ``cols``, adds dW += cols @ g^T over
      the block's samples, forms dcols = W^T @ g in tap-major rows, whose
      last e rows of each plane stay zero, and adds each tap's rows into a
      phase-layout dx as one slice; that dx is re-interleaved and cropped
      into dx.
    The GEMMs see each sample's matrix as a strided view, so no operand is
    transposed in memory.  ``cols`` would hold 98 MiB over the same convs.

    ``backward_at`` is the backward for a gradient that is zero except at
    one output position per (sample, output channel): it gathers just those
    B*Co windows from each block's phases, with no im2col and no GEMM.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, pad: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size not in (1, 3):
            raise ContractError(f"kernel size must be 1 or 3, got {kernel_size}")
        self.kind = f"conv{kernel_size}x{kernel_size}"
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.params["weight"] = _init_weight(rng, in_channels * kernel_size ** 2,
                                             (out_channels, in_channels, kernel_size, kernel_size))
        if bias:
            self.params["bias"] = np.zeros(out_channels, dtype=np.float32)
        self.zero_grads()

    def cost(self, n_out: int, flop_mode: int) -> int:
        return flop_mode * n_out * self.in_channels * self.kernel_size ** 2

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.pad
        if h + 2 * p < k or w + 2 * p < k:
            raise ShapeError(f"{self.where}: input {h}x{w} too small for k={k}, pad={p}")
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def _grid(self, h: int, w: int) -> tuple[int, int, int, int]:
        """(Ho, Wo, Hq, Wq): output and phase plane extents."""
        ho, wo = self.out_hw(h, w)
        e = (self.kernel_size - 1) // self.stride
        return ho, wo, ho + e, wo + e

    def block_size(self, x_shape: tuple, itemsize: int) -> int:
        """Samples per block for an input of ``x_shape`` (``BLOCK_BYTES``)."""
        _, c, h, w = x_shape
        _, _, hq, wq = self._grid(h, w)
        return max(1, BLOCK_BYTES // (c * self.kernel_size ** 2 * hq * wq * itemsize))

    def _taps(self, wq: int) -> list[tuple[int, int]]:
        """(phase, offset into its planes) of each tap, in (ki, kj) order."""
        k, s = self.kernel_size, self.stride
        m = min(k, s)
        return [((ki % s) * m + kj % s, (ki // s) * wq + kj // s)
                for ki in range(k) for kj in range(k)]

    def _phase_slices(self, h: int, w: int) -> list:
        """One (plane index, input index) pair per phase: on a block's
        planes, seen as (phases, C, block, Hq, Wq), and on the block, seen
        as (C, block, H, W), they select the same elements, the input rows
        and columns that some window reads."""
        k, s, p = self.kernel_size, self.stride, self.pad
        m = min(k, s)
        ho, wo = self.out_hw(h, w)

        def spans(n, n_read):
            # phase a holds input indices a + s*i - p; keep those in [0, n) that a window reads
            out = []
            for a in range(m):
                i0 = -((a - p) // s)
                r0 = a + s * i0 - p
                cnt = len(range(r0, min(n, n_read - p), s))
                out.append((slice(i0, i0 + cnt), slice(r0, r0 + s * cnt, s)))
            return out

        every = slice(None)
        return [((a * m + b, every, every, qr, qc), (every, every, xr, xc))
                for a, (qr, xr) in enumerate(spans(h, s * (ho - 1) + k))
                for b, (qc, xc) in enumerate(spans(w, s * (wo - 1) + k))]

    def _phase_blocks(self, x: np.ndarray, dx: np.ndarray | None = None):
        """Yield (lo, hi, xq, dxq) for each block of ``block_size`` samples
        of ``x``: the scratch ``xq`` (phases, C*block*L + slack) holds the
        stride phases of samples lo..hi-1 and zeros elsewhere.  Blocks of one
        size share the scratch, since each writes the same elements; a block
        of another size gets a zeroed one.  Given ``dx``, ``dxq`` is a zeroed
        scratch in ``xq``'s layout: whatever the caller adds into it is
        re-interleaved and cropped into ``dx[lo:hi]`` when it asks for the
        next block.  Without ``dx``, ``dxq`` is None."""
        b, c, h, w = x.shape
        _, _, hq, wq = self._grid(h, w)
        # the slack after the planes is the last tap's offset, e*(Wq+1)
        slack = self._taps(wq)[-1][1]
        slices = self._phase_slices(h, w)
        nb = self.block_size(x.shape, x.itemsize)
        xq = dxq = None
        for lo in range(0, b, nb):
            hi = min(lo + nb, b)
            size = (hi - lo) * c * hq * wq
            if xq is None or xq.shape[1] != size + slack:
                xq = np.zeros((min(self.kernel_size, self.stride) ** 2, size + slack), dtype=x.dtype)
                dxq = None if dx is None else np.empty_like(xq)
            # the block's planes, (phases, C, block, Hq, Wq), and the block as (C, block, H, W)
            planes = xq[:, :size].reshape(-1, c, hi - lo, hq, wq)
            xt = x[lo:hi].transpose(1, 0, 2, 3)
            for iq, ix in slices:
                planes[iq] = xt[ix]
            if dxq is not None:
                dxq.fill(0)
            yield lo, hi, xq, dxq
            if dxq is not None:
                dplanes, dxt = dxq[:, :size].reshape(planes.shape), dx[lo:hi].transpose(1, 0, 2, 3)
                for iq, ix in slices:
                    dxt[ix] = dplanes[iq]

    def _col_blocks(self, x: np.ndarray, dx: np.ndarray | None = None):
        """``_phase_blocks`` with ``cols`` (C, k*k, block*L) in place of
        ``xq``: each tap's slice of the block's phases, in its rows."""
        c, h, w = x.shape[1:]
        _, _, hq, wq = self._grid(h, w)
        taps = self._taps(wq)
        cols = None
        for lo, hi, xq, dxq in self._phase_blocks(x, dx):
            width = (hi - lo) * hq * wq
            if cols is None or cols.shape[2] != width:
                cols = np.empty((c, len(taps), width), dtype=x.dtype)
            for t, (ph, off) in enumerate(taps):
                cols[:, t] = xq[ph, off:off + c * width].reshape(c, width)
            yield lo, hi, cols, dxq

    @staticmethod
    def _per_sample(a: np.ndarray, nbb: int, plane: int, n: int) -> np.ndarray:
        """The first ``n`` columns of each plane of ``a`` (..., C*block*L),
        as one (rows, n) matrix per sample: a (block, rows, n) view."""
        return a.reshape(-1, nbb, plane)[:, :, :n].transpose(1, 0, 2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"{self.where}: expected (B,{self.in_channels},H,W), got {x.shape}")
        b, _, h, w = x.shape
        co = self.out_channels
        ho, wo, hq, wq = self._grid(h, w)
        plane, n = hq * wq, ho * wq
        wmat = self.params["weight"].reshape(co, -1)
        bias = self.params.get("bias")
        out = np.empty((b, co, ho, wo), dtype=np.result_type(wmat, x))
        for lo, hi, cols, _ in self._col_blocks(x):
            nbb = hi - lo
            y = np.matmul(wmat, self._per_sample(cols, nbb, plane, n))
            out[lo:hi] = y.reshape(nbb, co, ho, wq)[..., :wo]
            if bias is not None:
                out[lo:hi] += bias[:, None, None]
        return self._keep(x, out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._need_cache(grad_out)
        c, h, w = x.shape[1:]
        k, co = self.kernel_size, self.out_channels
        ho, wo, hq, wq = self._grid(h, w)
        plane, n = hq * wq, ho * wq
        taps = self._taps(wq)
        weight = self.params["weight"]
        # dcols comes out tap-major, (k, k, C) rows, so that each tap's rows are one slice
        wt_taps = weight.transpose(2, 3, 1, 0).reshape(-1, co)
        dwt = np.zeros((weight[0].size, co), dtype=np.result_type(grad_out, x))
        dx = np.zeros(x.shape, dtype=x.dtype)
        gq = None
        for lo, hi, cols, dxq in self._col_blocks(x, dx):
            nbb, width = hi - lo, cols.shape[2]
            if gq is None or gq.shape[1] != nbb:
                # gq and dcols are written only where a plane has outputs and
                # stay zero elsewhere, so a block of another size starts afresh
                gq = np.zeros((co, nbb, hq, wq), dtype=grad_out.dtype)
                dcols = np.zeros((k * k, c * width), dtype=x.dtype)
            gq[:, :, :ho, :wo] = grad_out[lo:hi].transpose(1, 0, 2, 3)
            g = self._per_sample(gq, nbb, plane, n)
            dwt += np.matmul(self._per_sample(cols, nbb, plane, n), g.transpose(0, 2, 1)).sum(axis=0)
            np.matmul(wt_taps, g, out=self._per_sample(dcols, nbb, plane, n))
            for t, (ph, off) in enumerate(taps):
                dxq[ph, off:off + c * width] += dcols[t]
        self.grads["weight"] += dwt.T.reshape(weight.shape)
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=(0, 2, 3))
        return dx

    def backward_at(self, pos: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Backward for a grad_out that is ``g[b, co]`` at flat output index
        ``pos[b, co]`` (into Ho*Wo) and zero elsewhere; both are (B, Co).

        dW[co] = sum_b g[b, co] * window(b, pos[b, co]) of the padded input,
        and dx adds g[b, co] * W[co] into the same windows.  Per block, a
        (block, Co, C*k*k) table of flat indices into the block's phases
        addresses every window element in the weight's (C, k, k) order: it
        gathers the windows, and ``np.add.at`` sums g * W into them where
        windows overlap.  dW is one contraction over the whole batch's
        windows, (B, Co, C*k*k)."""
        x = self._need_cache()
        if pos.shape != self._out_shape[:2] or g.shape != pos.shape:
            raise ShapeError(f"{self.where}: pos and g must be {self._out_shape[:2]}, "
                             f"got {pos.shape} and {g.shape}")
        b, c, h, w = x.shape
        ho, wo, hq, wq = self._grid(h, w)
        plane = hq * wq
        weight = self.params["weight"]
        taps = self._taps(wq)
        wmat = weight.reshape(self.out_channels, -1)
        i, j = np.divmod(pos, wo)
        at = (i * wq + j)[:, :, None]
        windows = np.empty((b, *wmat.shape), dtype=x.dtype)
        dx = np.zeros(x.shape, dtype=x.dtype)
        window = None
        for lo, hi, xq, dxq in self._phase_blocks(x, dx):
            nbb = hi - lo
            if window is None or len(window) != nbb:
                # sample n's plane of channel ci starts at (ci*block + n) * L
                chan = np.arange(nbb)[:, None] + np.arange(c) * nbb
                tap = [ph * xq.shape[1] + off for ph, off in taps]
                window = (chan[:, :, None] * plane + tap).reshape(nbb, 1, -1)
            flat = at[lo:hi] + window
            np.take(xq.reshape(-1), flat, out=windows[lo:hi])
            np.add.at(dxq.reshape(-1), flat.reshape(-1), (g[lo:hi, :, None] * wmat).reshape(-1))
        self.grads["weight"] += np.einsum("bo,bok->ok", g, windows).reshape(weight.shape)
        if "bias" in self.params:
            self.grads["bias"] += g.sum(axis=0)
        return dx


class MaxPool2x2(Layer):
    """2x2 max pooling with stride 2; ties route to the lowest linear index.

    An odd last row or column takes no part and gets zero gradient.  The
    window corners are strided views ``x[:, :, i:2*Ho:2, j:2*Wo:2]``, (i, j)
    in row-major order; forward is three ``np.maximum`` over them and
    caches the input and output by reference.  Backward gives each output's
    gradient to the first corner equal to it, as gradient times a 0/1 mask
    written into the matching view of dx; the last corner takes every
    window no earlier corner matched, a window whose max is NaN included.
    A non-finite gradient also makes the rest of its window NaN.
    """

    kind = "maxpool2x2"

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        if h < 2 or w < 2:
            raise ShapeError(f"{self.where}: spatial extents {h}x{w} below window")
        return (h - 2) // 2 + 1, (w - 2) // 2 + 1

    @staticmethod
    def _corners(a: np.ndarray, ho: int, wo: int) -> list[np.ndarray]:
        return [a[:, :, i:2 * ho:2, j:2 * wo:2] for i in (0, 1) for j in (0, 1)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, _, h, w = _check_nchw(self, x)
        ho, wo = self.out_hw(h, w)
        c00, c01, c10, c11 = self._corners(x, ho, wo)
        out = np.maximum(c00, c01)
        np.maximum(out, c10, out=out)
        np.maximum(out, c11, out=out)
        return self._keep((x, out), out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, out = self._need_cache(grad_out)
        ho, wo = out.shape[2:]
        dx = np.empty(x.shape, dtype=grad_out.dtype)
        dx[:, :, 2 * ho:] = 0
        dx[:, :, :, 2 * wo:] = 0
        xs, ds = self._corners(x, ho, wo), self._corners(dx, ho, wo)
        hit = xs[0] == out
        np.multiply(grad_out, hit, out=ds[0])
        free = ~hit
        for k in (1, 2):
            np.equal(xs[k], out, out=hit)
            hit &= free
            free ^= hit
            np.multiply(grad_out, hit, out=ds[k])
        np.multiply(grad_out, free, out=ds[3])
        return dx


class AdaptiveMaxPool(Layer):
    """Global spatial max per channel (fixed (1,1) output size).

    Works for any spatial extents, so score heads become independent of
    the input resolution.  Ties route to the lowest linear index.
    """

    kind = "adaptive_maxpool"

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = _check_nchw(self, x)
        flat = x.reshape(b, c, h * w)
        idx = np.argmax(flat, axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)
        return self._keep((x.shape, idx), np.ascontiguousarray(out.reshape(b, c, 1, 1)))

    def take_argmax(self, grad_out: np.ndarray) -> np.ndarray:
        """Take the last forward's cache, as ``backward`` would, but return
        the (B, C) flat H*W index of each channel's max instead of a dense
        dx: for a caller that routes ``grad_out`` there itself."""
        return self._need_cache(grad_out)[1]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, idx = self._need_cache(grad_out)
        b, c, h, w = x_shape
        dx = np.zeros((b, c, h * w), dtype=grad_out.dtype)
        np.put_along_axis(dx, idx[..., None], grad_out.reshape(b, c, 1), axis=-1)
        return dx.reshape(x_shape)


class BatchNorm2d(Layer):
    """Per-channel batch normalization over (batch, height, width).

    Train mode normalizes by batch statistics and moves the running
    statistics toward them by ``MOMENTUM``; eval mode is a pure function
    of the running statistics and leaves no cache, so it has no backward.
    Variance uses the 1/M convention both for normalization and for the
    running buffer; ``EPS`` guards its root.

    Each per-channel reduction (the mean, the centred second moment,
    dbeta, dgamma) views its operands as (B, C, H*W) rows and sums the
    contiguous last axis first; a sum of products goes through ``einsum``,
    which forms no temporary.  Train-mode dx reuses dbeta and dgamma as the
    two sums it needs.  Every elementwise step runs over (B, C*H*W) rows,
    with each per-channel vector repeated H*W times along the row: a
    (B, C, H*W) broadcast would run numpy's inner loop H*W elements long,
    one element behind a head's global pool.
    """

    kind = "batchnorm2d"
    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        self.params["gamma"] = np.ones(channels, dtype=np.float32)
        self.params["beta"] = np.zeros(channels, dtype=np.float32)
        self.buffers["running_mean"] = np.zeros(channels, dtype=np.float32)
        self.buffers["running_var"] = np.ones(channels, dtype=np.float32)
        self.zero_grads()

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = _check_nchw(self, x)
        if c != self.channels:
            raise ShapeError(f"{self.where}: expected {self.channels} channels, got {c}")
        hw, m = h * w, b * h * w
        rows = x.reshape(b, c * hw)
        running_mean, running_var = self.buffers["running_mean"], self.buffers["running_var"]
        if self.training:
            mean = x.reshape(b, c, hw).sum(axis=2).sum(axis=0) / m
            xhat = rows - np.repeat(mean, hw)
            xc = xhat.reshape(b, c, hw)
            var = np.einsum("bcl,bcl->c", xc, xc) / m
            mo = self.MOMENTUM
            running_mean += mo * (mean.astype(running_mean.dtype) - running_mean)
            running_var += mo * (var.astype(running_var.dtype) - running_var)
            invstd = 1.0 / np.sqrt(var + self.EPS)
            xhat *= np.repeat(invstd, hw)
            cache = (xhat, invstd, m)
        else:
            invstd = 1.0 / np.sqrt(running_var + self.EPS)
            xhat = (rows - np.repeat(running_mean, hw)) * np.repeat(invstd, hw)
            cache = None
        out = np.multiply(xhat, np.repeat(self.params["gamma"], hw))
        out += np.repeat(self.params["beta"], hw)
        return self._keep(cache, out.reshape(x.shape))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, invstd, m = self._need_cache(grad_out)
        b, c = grad_out.shape[:2]
        hw = xhat.shape[1] // c
        g = grad_out.reshape(b, c * hw)
        dbeta = g.reshape(b, c, hw).sum(axis=2).sum(axis=0)
        dgamma = np.einsum("bcl,bcl->c", g.reshape(b, c, hw), xhat.reshape(b, c, hw))
        self.grads["beta"] += dbeta
        self.grads["gamma"] += dgamma
        gamma = self.params["gamma"]
        # gamma*invstd * (g - mean(g) - xhat*mean(g*xhat)); the means are dbeta/m, dgamma/m
        dx = xhat * np.repeat(dgamma / m, hw)
        np.subtract(g, dx, out=dx)
        dx -= np.repeat(dbeta / m, hw)
        dx *= np.repeat(gamma * invstd, hw)
        return dx.reshape(grad_out.shape).astype(grad_out.dtype, copy=False)


class Linear(Layer):
    """Affine map x @ W + b, W (in_features, out_features), on the input
    flattened after the batch axis, (B, ...) -> (B, in_features); backward
    returns dx in the input's shape."""

    kind = "linear"

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = _init_weight(rng, in_features, (in_features, out_features))
        self.params["bias"] = np.zeros(out_features, dtype=np.float32)
        self.zero_grads()

    def cost(self, n_out: int, flop_mode: int) -> int:
        return flop_mode * n_out * self.in_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 2 or np.prod(x.shape[1:]) != self.in_features:
            raise ShapeError(f"{self.where}: expected {self.in_features} features, got {x.shape}")
        flat = x.reshape(x.shape[0], self.in_features)
        return self._keep((flat, x.shape), flat @ self.params["weight"] + self.params["bias"])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        flat, x_shape = self._need_cache(grad_out)
        self.grads["weight"] += flat.T @ grad_out
        self.grads["bias"] += grad_out.sum(axis=0)
        return (grad_out @ self.params["weight"].T).reshape(x_shape)


class ReLU(Layer):
    """max(x, 0).  Forward caches its output by reference, which the next
    layer holds anyway, and backward passes the gradient where it is
    positive: ``out > 0`` equals ``x > 0`` for every float, NaN and -0.0
    included."""

    kind = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, 0.0)
        return self._keep(out, out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._need_cache(grad_out)
        return grad_out * (out > 0)


class Softplus(Layer):
    """Smooth positive activation ln(1+exp(x)); derivative is the logistic."""

    kind = "softplus"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._keep(x, softplus(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._need_cache(grad_out)
        return grad_out * _sigmoid(x)
