"""Declarative backbone builder, built-in presets, and complexity stats.

A backbone is an ordered chain of stages; stage t maps feature h_{t-1}
to h_t, shrinking spatial extents and growing channels.  ``build``
attaches either one final classifier (``original`` mode) or one
classifier head per stage plus a score-sum aggregator (``multi`` mode).

Presets: ``vgg16`` and ``resnet18`` follow their published CIFAR-scale
layouts (convs listed per stage; VGG pools after every stage, ResNet
strides inside stages 3-5).  ``mini_vgg``, ``mini_resnet`` and
``mini_cnn`` are reduced-width variants of the same grammar for fast
deterministic experiments.

Complexity accounting (``Model.count_stats``) prices each layer kind by
one rule, applied to the outputs of one eval-mode forward at batch 1 and
scaled by the batch size:

* conv: C_in * k^2 multiply-accumulates per output element;
* linear: in_features multiply-accumulates per output element;
* every other kind (batchnorm, relu, softplus, pooling, score
  normalizer): one op per output element.

A multiply-accumulate counts as one FLOP by default and as two with
``flop_mode=2``.  Work done outside a layer (the residual add, the
channel concat, the head-score sum) is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import BuildError, ContractError, ShapeError
from .heads import ClassifierHead, aggregate_scores
from .layers import AdaptiveMaxPool, BatchNorm2d, Conv2d, Layer, Linear, MaxPool2x2, ReLU
from .rng import SeededRng

BlockKind = Literal["plain_conv", "residual_basic", "concat_merge"]
Reduction = Literal["pool", "stride", "none"]


@dataclass(frozen=True)
class BlockSpec:
    """One table cell: a kernel/channel plan repeated ``repeat`` times."""
    kind: BlockKind
    plan: tuple  # ((kernel, out_channels), ...)
    repeat: int = 1
    batchnorm: bool = True

    def __post_init__(self):
        if self.repeat < 1:
            raise BuildError("repeat must be >= 1")
        if not self.plan:
            raise BuildError("empty channel plan")
        for k, ch in self.plan:
            if k not in (1, 3):
                raise BuildError(f"kernel must be 1 or 3, got {k}")
            if ch < 1:
                raise BuildError(f"channels must be positive, got {ch}")


@dataclass(frozen=True)
class SetSpec:
    """One stage: its blocks plus how (or whether) it reduces spatial size."""
    blocks: tuple
    reduction: Reduction = "none"


@dataclass(frozen=True)
class BackboneSpec:
    name: str
    sets: tuple
    in_channels: int = 3

    @property
    def n_sets(self) -> int:
        return len(self.sets)


# --------------------------------------------------------------------------
# composite modules
# --------------------------------------------------------------------------

class PlainConvBlock(Layer):
    """conv(+bn)+relu chain; bias only when no batchnorm follows the conv."""

    def __init__(self, in_channels: int, spec: BlockSpec, stride_first: int,
                 rng: SeededRng, dtype):
        super().__init__()
        self.convs: list[Conv2d] = []
        self.bns: list[BatchNorm2d | None] = []
        self.relus: list[ReLU] = []
        ch = in_channels
        for rep in range(spec.repeat):
            for idx, (k, out_ch) in enumerate(spec.plan):
                stride = stride_first if (rep == 0 and idx == 0) else 1
                self.convs.append(Conv2d(ch, out_ch, k, stride=stride, pad=k // 2,
                                         bias=not spec.batchnorm, rng=rng, dtype=dtype))
                self.bns.append(BatchNorm2d(out_ch, dtype=dtype) if spec.batchnorm else None)
                self.relus.append(ReLU())
                ch = out_ch
        self.out_channels = ch

    def children(self):
        out = []
        for i, (conv, bn, relu) in enumerate(zip(self.convs, self.bns, self.relus)):
            out.append((f"conv{i}", conv))
            if bn is not None:
                out.append((f"bn{i}", bn))
            out.append((f"relu{i}", relu))
        return out


class _ResidualUnit(Layer):
    """conv-bn-relu-conv-bn with identity or projected skip, then relu."""

    def __init__(self, in_channels: int, plan, stride: int, rng: SeededRng, dtype):
        super().__init__()
        (k1, ch1), (k2, ch2) = plan
        self.conv1 = Conv2d(in_channels, ch1, k1, stride=stride, pad=k1 // 2,
                            bias=False, rng=rng, dtype=dtype)
        self.bn1 = BatchNorm2d(ch1, dtype=dtype)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(ch1, ch2, k2, stride=1, pad=k2 // 2,
                            bias=False, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2d(ch2, dtype=dtype)
        self.relu2 = ReLU()
        if stride != 1 or in_channels != ch2:
            self.proj = Conv2d(in_channels, ch2, 1, stride=stride, pad=0,
                               bias=False, rng=rng, dtype=dtype)
            self.proj_bn = BatchNorm2d(ch2, dtype=dtype)
        else:
            self.proj = None
            self.proj_bn = None
        self.out_channels = ch2

    def children(self):
        out = [("conv1", self.conv1), ("bn1", self.bn1), ("relu1", self.relu1),
               ("conv2", self.conv2), ("bn2", self.bn2)]
        if self.proj is not None:
            out += [("proj", self.proj), ("proj_bn", self.proj_bn)]
        return out + [("relu2", self.relu2)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.relu1(self.bn1(self.conv1(x)))
        main = self.bn2(self.conv2(main))
        skip = self.proj_bn(self.proj(x)) if self.proj is not None else x
        return self.relu2(main + skip)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.relu2.backprop(grad)
        gmain = self.conv2.backprop(self.bn2.backprop(grad))
        gmain = self.conv1.backprop(self.bn1.backprop(self.relu1.backprop(gmain)))
        if self.proj is not None:
            gskip = self.proj.backprop(self.proj_bn.backprop(grad))
        else:
            gskip = grad
        return gmain + gskip


class ResidualBlock(Layer):
    """``repeat`` stacked residual units; stride applies to the first."""

    def __init__(self, in_channels: int, spec: BlockSpec, stride_first: int,
                 rng: SeededRng, dtype):
        super().__init__()
        if len(spec.plan) != 2:
            raise BuildError("residual_basic needs a two-conv plan")
        self.units: list[_ResidualUnit] = []
        ch = in_channels
        for rep in range(spec.repeat):
            stride = stride_first if rep == 0 else 1
            unit = _ResidualUnit(ch, spec.plan, stride, rng, dtype)
            self.units.append(unit)
            ch = unit.out_channels
        self.out_channels = ch

    def children(self):
        return [(f"unit{i}", u) for i, u in enumerate(self.units)]


class ConcatMergeBlock(Layer):
    """Dense-style merge: output is [input, body(input)] along channels.

    Expressive enough for dense-block grammars; no built-in preset uses it.
    """

    def __init__(self, in_channels: int, spec: BlockSpec, stride_first: int,
                 rng: SeededRng, dtype):
        super().__init__()
        if stride_first != 1:
            raise BuildError("concat_merge does not take a stage stride")
        self.in_channels = in_channels
        self.body = PlainConvBlock(in_channels, spec, 1, rng, dtype)
        self.out_channels = in_channels + self.body.out_channels

    def children(self):
        return [("body", self.body)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.body(x)
        if y.shape[2:] != x.shape[2:]:
            raise BuildError("concat_merge body must preserve spatial extents")
        return np.concatenate([x, y], axis=1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        gx = grad[:, :self.in_channels]
        gy = grad[:, self.in_channels:]
        return np.ascontiguousarray(gx) + self.body.backprop(np.ascontiguousarray(gy))


_BLOCK_BUILDERS = {
    "plain_conv": PlainConvBlock,
    "residual_basic": ResidualBlock,
    "concat_merge": ConcatMergeBlock,
}


class SetModule(Layer):
    """One stage: its blocks plus the stage-level spatial reduction."""

    def __init__(self, index: int, in_channels: int, spec: SetSpec,
                 rng: SeededRng, dtype):
        super().__init__()
        self.index = index
        self.blocks = []
        ch = in_channels
        stride_first = 2 if spec.reduction == "stride" else 1
        for bi, bspec in enumerate(spec.blocks):
            builder = _BLOCK_BUILDERS.get(bspec.kind)
            if builder is None:
                raise BuildError(f"unknown block kind {bspec.kind!r}")
            block = builder(ch, bspec, stride_first if bi == 0 else 1, rng, dtype)
            self.blocks.append(block)
            ch = block.out_channels
        self.pool = MaxPool2x2() if spec.reduction == "pool" else None
        self.out_channels = ch

    def children(self):
        out = [(f"block{i}", b) for i, b in enumerate(self.blocks)]
        if self.pool is not None:
            out.append(("pool", self.pool))
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        try:
            return super().forward(x)
        except ShapeError as exc:
            raise ShapeError(f"set {self.index}: {exc}") from exc


class OriginalClassifier(Layer):
    """Final classifier: global max pool, then a linear stack on the channels;
    a plain chain, whose first linear flattens the pooled (B,C,1,1) feature.

    ``hidden`` inserts intermediate linear+relu widths (e.g. (4096, 4096)
    for the published VGG16 stack); the default is a single linear map.
    """

    def __init__(self, in_channels: int, n_classes: int, hidden: Sequence[int] = (),
                 rng: SeededRng | None = None, dtype=np.float32):
        super().__init__()
        rng = rng if rng is not None else SeededRng(0)
        self.pool = AdaptiveMaxPool()
        self.linears: list[Linear] = []
        self.relus: list[ReLU] = []
        widths = [in_channels, *hidden, n_classes]
        for i in range(len(widths) - 1):
            self.linears.append(Linear(widths[i], widths[i + 1], bias=True, rng=rng, dtype=dtype))
            if i < len(widths) - 2:
                self.relus.append(ReLU())

    def children(self):
        out = [("pool", self.pool)]
        for i, lin in enumerate(self.linears):
            out.append((f"fc{i}", lin))
            if i < len(self.relus):
                out.append((f"relu{i}", self.relus[i]))
        return out


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

@dataclass
class ModelStats:
    """Trainable-parameter and forward-FLOP totals with per-stage breakdown."""
    params: int
    flops: int
    per_set: list
    classifier_params: int
    classifier_flops: int
    input_shape: tuple
    flop_convention: str


class Model(Layer):
    """A built backbone plus its classifier(s); owns forward and backward.

    Its children are the stages ``set<i>``, then either the heads
    ``head<t>`` (``multi`` mode) or one ``classifier`` (``original``).
    """

    def __init__(self, spec: BackboneSpec, sets: list[SetModule], mode: str,
                 heads: list[ClassifierHead] | None,
                 classifier: OriginalClassifier | None, dtype):
        super().__init__()
        self.spec = spec
        self.sets = sets
        self.mode = mode
        self.heads = heads
        self.classifier = classifier
        self.dtype = dtype

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def children(self):
        out = [(f"set{s.index}", s) for s in self.sets]
        if self.heads is not None:
            return out + [(f"head{h.t}", h) for h in self.heads]
        return out + [("classifier", self.classifier)]

    def forward(self, x: np.ndarray, training: bool = False):
        """Run the chain; returns (output, per_head) where per_head is None
        in original mode.  Eval mode (training=False) is deterministic."""
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.spec.in_channels:
            raise ShapeError(
                f"expected (B,{self.spec.in_channels},H,W) input, got {x.shape}")
        self.set_training(training)
        taps = []
        h = x.astype(self.dtype, copy=False)
        for s in self.sets:
            h = s(h)
            taps.append(h)
        if self.mode == "multi":
            per_head = [head(t) for head, t in zip(self.heads, taps)]
            return aggregate_scores(per_head), per_head
        return self.classifier(taps[-1]), None

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate from the model output gradient into all parameters;
        returns the gradient of the input, in the model's dtype."""
        grad_out = np.asarray(grad_out, dtype=self.dtype)
        if self.mode == "multi":
            # the aggregate is a plain sum, so each head sees the same gradient
            tap_grads = [head.backprop(grad_out) for head in self.heads]
        else:
            tap_grads = [None] * (self.n_sets - 1) + [self.classifier.backprop(grad_out)]
        grad = None
        for t in range(self.n_sets - 1, -1, -1):
            g = tap_grads[t]
            if grad is not None:
                g = grad if g is None else g + grad
            grad = self.sets[t].backprop(g)
        return grad

    def count_stats(self, input_shape, flop_mode: int = 1) -> ModelStats:
        """Exact trainable-scalar count and forward FLOPs at ``input_shape``.

        Runs one eval-mode forward of a zero image at batch 1, prices every
        leaf layer's output with its kind's ``Layer.cost`` and scales by the
        batch size.  A head's cost is attributed to the stage it taps.
        Leaves no cache behind: a ``backward`` after it raises.  Only output
        sizes are read, so the counts hold even when weights went non-finite.
        """
        if flop_mode not in (1, 2):
            raise ContractError("flop_mode is 1 (MAC=1) or 2 (MAC=2)")
        b, c, h, w = input_shape
        if c != self.spec.in_channels:
            raise ShapeError(f"input channels {c} != spec {self.spec.in_channels}")
        n_out = {}

        def observe(name: str, layer: Layer, direction: str, out: np.ndarray):
            n_out[layer] = out.size

        with self.hooked(observe), np.errstate(all="ignore"):
            self.forward(np.zeros((1, c, h, w), dtype=self.dtype), training=False)

        def cost(part: Layer) -> tuple[int, int]:
            params = sum(p.size for p in part.named_params().values())
            flops = sum(layer.cost(n_out[layer], flop_mode)
                        for _, layer in part.modules() if not layer.children())
            return params, b * flops

        costs = {name: cost(part) for name, part in self.children()}
        per_set = []
        for s in self.sets:
            p, f = costs[f"set{s.index}"]
            hp, hf = costs.get(f"head{s.index}", (0, 0))
            per_set.append((f"set{s.index}", p + hp, f + hf))
        tops = [v for k, v in costs.items() if not k.startswith("set")]
        convention = "1 MAC = 1 FLOP" if flop_mode == 1 else "1 MAC = 2 FLOPs"
        return ModelStats(params=sum(p for p, _ in costs.values()),
                          flops=sum(f for _, f in costs.values()),
                          per_set=per_set,
                          classifier_params=sum(p for p, _ in tops),
                          classifier_flops=sum(f for _, f in tops),
                          input_shape=tuple(input_shape), flop_convention=convention)


# --------------------------------------------------------------------------
# builder and presets
# --------------------------------------------------------------------------

def build(spec: BackboneSpec, mode: str = "original", n_classes: int = 10,
          normalizer: str = "l2", hidden: Sequence[int] = (),
          seed: int = 0, dtype=np.float32) -> Model:
    """Build a model from a backbone description.

    ``mode="original"`` appends one final classifier on the last feature;
    ``mode="multi"`` attaches one head per stage (all heads adapt to the
    last stage's channel width) and sums their score vectors.
    """
    if mode not in ("original", "multi"):
        raise ContractError(f"mode must be 'original' or 'multi', got {mode!r}")
    if spec.n_sets < 1:
        raise BuildError("backbone needs at least one set")
    rng = SeededRng(seed, 1000)
    sets = []
    ch = spec.in_channels
    for i, sspec in enumerate(spec.sets, start=1):
        s = SetModule(i, ch, sspec, rng, dtype)
        sets.append(s)
        ch = s.out_channels
    target = sets[-1].out_channels
    if mode == "multi":
        heads = [ClassifierHead(t, s.out_channels, target, n_classes,
                                normalizer=normalizer, rng=rng, dtype=dtype)
                 for t, s in enumerate(sets, start=1)]
        return Model(spec, sets, "multi", heads, None, dtype)
    classifier = OriginalClassifier(target, n_classes, hidden=hidden, rng=rng, dtype=dtype)
    return Model(spec, sets, "original", None, classifier, dtype)


def _plain(ch: int, n: int, bn: bool) -> BlockSpec:
    return BlockSpec("plain_conv", ((3, ch),), repeat=n, batchnorm=bn)


def _res(ch: int, n: int) -> BlockSpec:
    return BlockSpec("residual_basic", ((3, ch), (3, ch)), repeat=n)


def vgg16_spec() -> BackboneSpec:
    """Thirteen 3x3 convs in five pooled stages (64-64-128-256-512 plan)."""
    return BackboneSpec("vgg16", (
        SetSpec((_plain(64, 2, False),), "pool"),
        SetSpec((_plain(128, 2, False),), "pool"),
        SetSpec((_plain(256, 3, False),), "pool"),
        SetSpec((_plain(512, 3, False),), "pool"),
        SetSpec((_plain(512, 3, False),), "pool"),
    ))


def resnet18_spec() -> BackboneSpec:
    """Stem conv plus four two-unit residual stages; strides in stages 3-5."""
    return BackboneSpec("resnet18", (
        SetSpec((_plain(64, 1, True),), "none"),
        SetSpec((_res(64, 2),), "none"),
        SetSpec((_res(128, 2),), "stride"),
        SetSpec((_res(256, 2),), "stride"),
        SetSpec((_res(512, 2),), "stride"),
    ))


def mini_vgg_spec() -> BackboneSpec:
    """Three pooled plain stages at reduced widths (8-16-32)."""
    return BackboneSpec("mini_vgg", (
        SetSpec((_plain(8, 1, False),), "pool"),
        SetSpec((_plain(16, 2, False),), "pool"),
        SetSpec((_plain(32, 2, False),), "pool"),
    ))


def mini_resnet_spec() -> BackboneSpec:
    """Stem plus three single-unit residual stages, strides in stages 2-4."""
    return BackboneSpec("mini_resnet", (
        SetSpec((_plain(8, 1, True),), "none"),
        SetSpec((_res(16, 1),), "stride"),
        SetSpec((_res(32, 1),), "stride"),
        SetSpec((_res(32, 1),), "stride"),
    ))


def mini_cnn_spec() -> BackboneSpec:
    """Single pooled stage of two plain convs; the degenerate one-set chain."""
    return BackboneSpec("mini_cnn", (
        SetSpec((_plain(16, 2, False),), "pool"),
    ))


PRESETS = {
    "vgg16": vgg16_spec,
    "resnet18": resnet18_spec,
    "mini_vgg": mini_vgg_spec,
    "mini_resnet": mini_resnet_spec,
    "mini_cnn": mini_cnn_spec,
}


def build_preset(name: str, mode: str = "original", n_classes: int = 10,
                 normalizer: str = "l2", hidden: Sequence[int] = (),
                 seed: int = 0, dtype=np.float32) -> Model:
    if name not in PRESETS:
        raise ContractError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return build(PRESETS[name](), mode=mode, n_classes=n_classes,
                 normalizer=normalizer, hidden=hidden, seed=seed, dtype=dtype)
