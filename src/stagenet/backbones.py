"""Declarative backbone builder, built-in presets, and complexity stats.

A backbone is an ordered chain of stages; stage t maps feature h_{t-1}
to h_t, shrinking spatial extents and growing channels.  ``build``
attaches either one final classifier (``original`` mode) or one
classifier head per stage plus a score-sum aggregator (``multi`` mode).
One ``SetSpec`` describes a stage: ``repeat`` units of one of three kinds
(``plain``: biased 3x3 conv, relu; ``plain_bn``: bias-free 3x3 conv,
batchnorm, relu; ``residual``: a basic residual unit), then a 2x2 max
pool, a stride of 2 in the first unit, or no reduction.

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
``flop_mode=2``.  Work done outside a layer (the residual add and the
head-score sum) is not counted.

Every composite below the model declares its children with ``Layer.add``
in execution order, so a child's attribute name is its name in
``modules()`` and in parameter names (``set1.conv0.weight``,
``set2.unit0.conv1.weight``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, get_args

import numpy as np

from .errors import BuildError, ContractError, ShapeError
from .heads import NORMALIZERS, ClassifierHead, aggregate_scores
from .layers import AdaptiveMaxPool, BatchNorm2d, Conv2d, Layer, Linear, MaxPool2x2, ReLU
from .rng import seeded_rng

StageKind = Literal["plain", "plain_bn", "residual"]
Reduction = Literal["pool", "stride", "none"]


@dataclass(frozen=True)
class SetSpec:
    """One stage: ``repeat`` units of one ``kind``, each ``channels`` wide,
    then its spatial ``reduction``.

    Kinds: ``"plain"`` is a biased 3x3 conv, then relu; ``"plain_bn"`` a
    bias-free 3x3 conv, then batchnorm, then relu; ``"residual"`` a basic
    residual unit, two 3x3 convs with a 1x1 projection on the skip when the
    shape changes.  Reductions: ``"pool"`` puts a 2x2 max pool after the
    units, ``"stride"`` gives the first unit stride 2, ``"none"`` keeps the
    spatial size.
    """
    kind: StageKind
    channels: int
    repeat: int = 1
    reduction: Reduction = "none"


@dataclass(frozen=True)
class BackboneSpec:
    sets: tuple
    in_channels: int = 3


# --------------------------------------------------------------------------
# composite modules
# --------------------------------------------------------------------------

class _ResidualUnit(Layer):
    """conv-bn-relu-conv-bn with identity or projected skip, then relu."""

    def __init__(self, in_channels: int, channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        self.add("conv1", Conv2d(in_channels, channels, 3, stride=stride, pad=1,
                                 bias=False, rng=rng))
        self.add("bn1", BatchNorm2d(channels))
        self.add("relu1", ReLU())
        self.add("conv2", Conv2d(channels, channels, 3, stride=1, pad=1, bias=False, rng=rng))
        self.add("bn2", BatchNorm2d(channels))
        self.proj = None
        if stride != 1 or in_channels != channels:
            self.add("proj", Conv2d(in_channels, channels, 1, stride=stride, pad=0,
                                    bias=False, rng=rng))
            self.add("proj_bn", BatchNorm2d(channels))
        self.add("relu2", ReLU())

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


class SetModule(Layer):
    """One stage: its ``repeat`` units, then the stage-level reduction.  A
    plain stage's children are ``conv<i>`` (``bn<i>``) ``relu<i>``, a
    residual stage's ``unit<i>``; a pooled stage ends in ``pool``."""

    def __init__(self, index: int, in_channels: int, spec: SetSpec, rng: np.random.Generator):
        super().__init__()
        if spec.kind not in get_args(StageKind):
            raise BuildError(f"unknown stage kind {spec.kind!r}")
        if spec.reduction not in get_args(Reduction):
            raise BuildError(f"unknown reduction {spec.reduction!r}")
        for field in ("channels", "repeat"):
            if getattr(spec, field) < 1:
                raise BuildError(f"{field} must be >= 1, got {getattr(spec, field)}")
        self.index = index
        ch, stride = in_channels, 2 if spec.reduction == "stride" else 1
        for i in range(spec.repeat):
            if spec.kind == "residual":
                self.add(f"unit{i}", _ResidualUnit(ch, spec.channels, stride, rng))
            else:
                bn = spec.kind == "plain_bn"
                self.add(f"conv{i}", Conv2d(ch, spec.channels, 3, stride=stride, pad=1,
                                            bias=not bn, rng=rng))
                if bn:
                    self.add(f"bn{i}", BatchNorm2d(spec.channels))
                self.add(f"relu{i}", ReLU())
            ch, stride = spec.channels, 1
        if spec.reduction == "pool":
            self.add("pool", MaxPool2x2())


class OriginalClassifier(Layer):
    """Final classifier: global max pool, then a linear stack on the channels;
    a plain chain, whose first linear flattens the pooled (B,C,1,1) feature.

    ``hidden`` inserts intermediate linear+relu widths (e.g. (4096, 4096)
    for the published VGG16 stack); an empty ``hidden`` gives a single
    linear map.
    """

    def __init__(self, in_channels: int, n_classes: int, hidden: Sequence[int],
                 rng: np.random.Generator):
        super().__init__()
        self.add("pool", AdaptiveMaxPool())
        widths = [in_channels, *hidden, n_classes]
        for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
            self.add(f"fc{i}", Linear(w_in, w_out, rng=rng))
            if i < len(hidden):
                self.add(f"relu{i}", ReLU())


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

@dataclass
class ModelStats:
    """Trainable-parameter and forward-FLOP totals with per-stage breakdown."""
    params: int
    flops: int
    per_set: list
    classifier_flops: int


class Model(Layer):
    """A built backbone plus its classifier(s); owns forward and backward.

    Its children are the stages ``set<i>``, then either the heads
    ``head<t>`` (``multi`` mode, ``classifier`` None) or one
    ``classifier`` (``original`` mode, ``heads`` None).
    Unlike the composites it holds, it lists them in its own ``children()``
    rather than with ``add``, and in ``multi`` mode that order is not the
    execution order: head t runs right after set t in forward and right
    before it in backward, so a head's conv output never sits on top of a
    later stage's caches.  It writes each node's qualified name into that
    node's ``name``, which starts the node's error messages.
    """

    def __init__(self, spec: BackboneSpec, sets: list[SetModule],
                 heads: list[ClassifierHead] | None,
                 classifier: OriginalClassifier | None):
        super().__init__()
        self.spec = spec
        self.sets = sets
        self.heads = heads
        self.classifier = classifier
        for name, layer in self.modules():
            layer.name = name

    @property
    def param_dtype(self) -> np.dtype:
        """The first stage's first param's dtype; ``astype`` casts every
        param alike."""
        return next(p.dtype for _, layer in self.sets[0].modules() for p in layer.params.values())

    def children(self):
        out = [(f"set{s.index}", s) for s in self.sets]
        if self.heads is not None:
            return out + [(f"head{h.t}", h) for h in self.heads]
        return out + [("classifier", self.classifier)]

    def forward(self, x: np.ndarray, training: bool = False):
        """Run the chain; returns (output, per_head) where per_head is None
        in original mode.  Eval mode (training=False) is deterministic.
        ``x`` must have the params' dtype (float32 unless ``astype`` cast
        the model); it is not cast."""
        x = np.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.spec.in_channels:
            raise ShapeError(
                f"expected (B,{self.spec.in_channels},H,W) input, got {x.shape}")
        if x.dtype != self.param_dtype:
            raise ContractError(f"input dtype {x.dtype} != model param dtype {self.param_dtype}")
        self.set_training(training)
        per_head = []
        for s in self.sets:
            x = s(x)
            if self.heads is not None:
                per_head.append(self.heads[s.index - 1](x))
        if self.heads is not None:
            return aggregate_scores(per_head), per_head
        return self.classifier(x), None

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate from the model output gradient into all parameters;
        returns the gradient of the input."""
        grad = self.classifier.backprop(grad_out) if self.heads is None else None
        for s in reversed(self.sets):
            if self.heads is not None:
                # the aggregate is a plain sum, so each head sees the same gradient
                g = self.heads[s.index - 1].backprop(grad_out)
                grad = g if grad is None else g + grad
            grad = s.backprop(grad)
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
        n_out = {}

        def observe(name: str, layer: Layer, direction: str, out: np.ndarray):
            n_out[layer] = out.size

        with self.hooked(observe), np.errstate(all="ignore"):
            self.forward(np.zeros((1, c, h, w), dtype=self.param_dtype), training=False)

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
        return ModelStats(params=sum(p for p, _ in costs.values()),
                          flops=sum(f for _, f in costs.values()),
                          per_set=per_set,
                          classifier_flops=sum(f for k, (_, f) in costs.items()
                                               if not k.startswith("set")))


# --------------------------------------------------------------------------
# builder and presets
# --------------------------------------------------------------------------

def build(spec: BackboneSpec, mode: str = "original", n_classes: int = 10,
          normalizer: str = "l2", hidden: Sequence[int] = (),
          seed: int = 0) -> Model:
    """Build a model from a backbone description.

    ``mode="original"`` appends one final classifier on the last feature;
    ``mode="multi"`` attaches one head per stage (all heads adapt to the
    last stage's channel width) and sums their score vectors.  Both modes
    reject ``n_classes < 2`` and an unknown ``normalizer``, though only
    heads use it.  ``hidden`` (the final classifier's hidden widths)
    applies to ``original`` mode only; ``multi`` rejects a non-empty one
    with ``ContractError``.  The model is float32 and takes float32 inputs;
    ``model.astype(np.float64)`` casts it for the gradient checks.
    """
    if mode not in ("original", "multi"):
        raise ContractError(f"mode must be 'original' or 'multi', got {mode!r}")
    if n_classes < 2:
        raise ContractError("need at least 2 categories")
    if normalizer not in NORMALIZERS:
        raise ContractError(
            f"normalizer must be one of {tuple(NORMALIZERS)}, got {normalizer!r}")
    if mode == "multi" and len(hidden) > 0:
        raise ContractError(f"hidden widths apply to mode 'original' only, got {tuple(hidden)}")
    if not spec.sets:
        raise BuildError("backbone needs at least one set")
    if spec.in_channels < 1:
        raise BuildError(f"in_channels must be >= 1, got {spec.in_channels}")
    if any(width < 1 for width in hidden):
        raise BuildError(f"hidden widths must be >= 1, got {tuple(hidden)}")
    rng = seeded_rng(seed, 1000)
    sets, ch = [], spec.in_channels
    for i, sspec in enumerate(spec.sets, start=1):
        sets.append(SetModule(i, ch, sspec, rng))
        ch = sspec.channels
    if mode == "multi":
        heads = [ClassifierHead(t, sspec.channels, ch, n_classes,
                                normalizer=normalizer, rng=rng)
                 for t, sspec in enumerate(spec.sets, start=1)]
        return Model(spec, sets, heads, None)
    classifier = OriginalClassifier(ch, n_classes, hidden=hidden, rng=rng)
    return Model(spec, sets, None, classifier)


PRESETS = {
    # thirteen 3x3 convs in five pooled stages (64-64-128-256-512 plan)
    "vgg16": BackboneSpec((
        SetSpec("plain", 64, 2, "pool"),
        SetSpec("plain", 128, 2, "pool"),
        SetSpec("plain", 256, 3, "pool"),
        SetSpec("plain", 512, 3, "pool"),
        SetSpec("plain", 512, 3, "pool"),
    )),
    # stem conv plus four two-unit residual stages; strides in stages 3-5
    "resnet18": BackboneSpec((
        SetSpec("plain_bn", 64),
        SetSpec("residual", 64, 2),
        SetSpec("residual", 128, 2, "stride"),
        SetSpec("residual", 256, 2, "stride"),
        SetSpec("residual", 512, 2, "stride"),
    )),
    # three pooled plain stages at reduced widths (8-16-32)
    "mini_vgg": BackboneSpec((
        SetSpec("plain", 8, 1, "pool"),
        SetSpec("plain", 16, 2, "pool"),
        SetSpec("plain", 32, 2, "pool"),
    )),
    # stem plus three single-unit residual stages, strides in stages 2-4
    "mini_resnet": BackboneSpec((
        SetSpec("plain_bn", 8),
        SetSpec("residual", 16, 1, "stride"),
        SetSpec("residual", 32, 1, "stride"),
        SetSpec("residual", 32, 1, "stride"),
    )),
    # single pooled stage of two plain convs; the degenerate one-set chain
    "mini_cnn": BackboneSpec((
        SetSpec("plain", 16, 2, "pool"),
    )),
}


def build_preset(name: str, mode: str = "original", n_classes: int = 10,
                 normalizer: str = "l2", hidden: Sequence[int] = (),
                 seed: int = 0) -> Model:
    if name not in PRESETS:
        raise ContractError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return build(PRESETS[name], mode=mode, n_classes=n_classes,
                 normalizer=normalizer, hidden=hidden, seed=seed)
