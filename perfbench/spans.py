"""In-memory spans around stagenet calls, recorded from outside the package.

A span is one call of a wrapped function: its name, the kind of thing
called, the direction (``fwd``, ``bwd`` or ``call``), start and end in
``perf_counter_ns`` nanoseconds, the index of the span that was open when
it began (-1 for none) and, for conv and linear forwards, the
multiply-accumulates computed from the output shape.  Spans stay in a list
until the run ends; nothing is written while the workload runs.

Wrapping is done by assigning attributes, so every wrapper goes through
``Patches``, which puts the original attributes back when it closes.
"""

from __future__ import annotations

import time

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("name", "kind", "direction", "start", "end", "parent", "macs")

    def __init__(self, name, kind, direction, start, end=0, parent=-1, macs=0):
        self.name = name
        self.kind = kind
        self.direction = direction
        self.start = start
        self.end = end
        self.parent = parent
        self.macs = macs

    def as_list(self) -> list:
        return [self.name, self.kind, self.direction, self.start, self.end,
                self.parent, self.macs]


class Patches:
    """Attribute assignments that are undone, newest first, on close."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr: str, value):
        own = vars(obj)
        self._undo.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, value)

    def close(self):
        while self._undo:
            obj, attr, had, old = self._undo.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Tracer:
    """Records a span per call of every function it wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, kind: str, direction: str = "call", macs=None):
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, kind, direction, 0, 0, opened[-1] if opened else -1)
            opened.append(len(spans))
            spans.append(span)
            span.start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                opened.pop()
            if macs is not None:
                span.macs = macs(out)
            return out

        return traced


def conv_macs(conv):
    """Cout*Cin*k*k*Ho*Wo*B, read from the output (B,Cout,Ho,Wo)."""
    per_output = conv.in_channels * conv.kernel_size ** 2
    return lambda out: out.size * per_output


def linear_macs(linear):
    return lambda out: out.size * linear.in_features


def model_parts(model):
    """(qualified name, kind, object) for every part with forward/backward.

    Stages are ``set<i>`` and heads ``head<t>``, as in the model's parameter
    names; inside them, parts are named by attribute (``blocks[0].convs[1]``).
    Layers report their own ``kind`` (conv3x3, batchnorm2d, ...); stages are
    ``set``, heads ``head`` and every other composite ``composite``.  The
    walk goes through object attributes rather than ``children()``, because
    activations (ReLU, Softplus) are not listed as children.
    """
    tops = [(f"set{i}", "set", s) for i, s in enumerate(model.sets, start=1)]
    tops += [(f"head{h.t}", "head", h) for h in model.heads or ()]
    if model.classifier is not None:
        tops.append(("classifier", "composite", model.classifier))
    for name, kind, part in tops:
        yield name, kind, part
        yield from _walk(part, name)


def _walk(obj, prefix: str):
    for attr, value in vars(obj).items():
        if attr.startswith("_"):
            continue
        items = ([(f"{attr}[{i}]", v) for i, v in enumerate(value)]
                 if isinstance(value, list) else [(attr, value)])
        for sub, child in items:
            if not (hasattr(child, "forward") and hasattr(child, "backward")):
                continue
            name = f"{prefix}.{sub}"
            yield name, getattr(child, "kind", "composite"), child
            yield from _walk(child, name)


def instrument_model(tracer: Tracer, patches: Patches, model):
    """Wrap forward/backward of the model and each of its parts, plus the
    per-step model calls the training loop makes (zero_grads, named_*)."""
    for name, kind, part in [("model", "model", model), *model_parts(model)]:
        macs = None
        if kind.startswith("conv"):
            macs = conv_macs(part)
        elif kind == "linear":
            macs = linear_macs(part)
        patches.set(part, "forward", tracer.wrap(part.forward, name, kind, "fwd", macs))
        patches.set(part, "backward", tracer.wrap(part.backward, name, kind, "bwd"))
    for method in ("zero_grads", "named_params", "named_grads"):
        patches.set(model, method,
                    tracer.wrap(getattr(model, method), f"train.{method}", "call"))


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus its children's durations.

    ``Tracer.wrap`` opens and closes spans on one stack, so children are
    disjoint and lie inside their parent.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
