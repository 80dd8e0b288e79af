"""Workloads of the stagenet benchmark: set-up, measured loops, checks, metrics.

Every workload is one process driving the public stagenet API on
synthetic ``striped_patterns`` data (float32, N=10 classes, 32x32 images,
batch 100).  ``--seed`` picks the data, the shuffle order and the
augmentation draws; the weights are always initialised from
``INIT_SEED``, so two seeds differ only in their inputs.  (With the init
seed varied too, test accuracy after two epochs spreads by 40% between
seeds, which no regression bound could absorb.)

A train workload repeats *rounds* of ``round_epochs`` epochs of
``run_training``, with augmentation, a checkpoint each epoch and the
end-of-epoch evaluation.  Every epoch starts from a fresh set-up; from
the second epoch of a round on, the new model, optimizer and scheduler
resume from the round's checkpoint.  Every round must reproduce the first
one's loss trajectory bit for bit, which also checks that resuming is
exact.  The eval workload repeats a fresh set-up and one ``evaluate``
pass over the held-out split instead.  Rounds and passes repeat until the
run's seconds are spent; the first always runs to its end.

``setup_s`` is the median of the set-ups that start the epochs or passes.
Spread over the run like this, they see the same mix of the host's fast
and slow phases as the measured loop; timed back to back at the start of
a process, their median spread 24-33% between seeds.  The previous
epoch's model is freed before a set-up, so one model is alive at a time.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import os
import platform
import resource
import statistics
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from stagenet import build_preset, scorenorm
from stagenet import train as training
from stagenet.data import AugmentPolicy, channel_stats, make_synthetic, normalize_batch
from stagenet.errors import StagenetError
from stagenet.train import Adam, PlateauScheduler, TrainConfig

from spans import Patches, Tracer, instrument_model, self_times

SYNTHETIC = "striped_patterns"
N_CLASSES = 10
INIT_SEED = 0
HELD_OUT = 1 << 32   # the held-out split is drawn from seed + HELD_OUT
L2_TOL = 1e-5        # |sum of squared L2 scores - 1|, about 80 float32 ulps at 1.0
MAX_STAGES = 4       # mini_resnet has four stages, mini_vgg three
LAYER_KINDS = ("conv3x3", "conv1x1", "batchnorm2d", "maxpool2x2",
               "adaptive_maxpool", "linear", "relu", "softplus")
GEMM_SHAPE = (4096, 1024, 1024)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    mode: str
    phase: str               # "train": run_training rounds; "eval": evaluate passes
    n_train: int = 1000      # a multiple of batch, so every train batch is full
    n_test: int = 200
    batch: int = 100
    image_size: int = 32
    round_epochs: int = 2
    setup_reps: int = 2      # timed set-ups before each epoch or pass
    warmup_images: int = 300


WORKLOADS = {w.name: w for w in (
    Workload("train_multi_resnet", "mini_resnet", "multi", "train"),
    Workload("train_original_vgg", "mini_vgg", "original", "train"),
    Workload("eval_multi_resnet", "mini_resnet", "multi", "eval", n_test=1000, setup_reps=1),
)}


# --------------------------------------------------------------------------
# set-up, warm-up and calibration
# --------------------------------------------------------------------------

@dataclass
class Fixture:
    train_set: object
    test_set: object
    policy: AugmentPolicy
    model: object
    optimizer: Adam | None


def _new_model(wl: Workload):
    return build_preset(wl.preset, wl.mode, N_CLASSES, seed=INIT_SEED)


def _new_adam(model) -> Adam:
    cfg = TrainConfig()
    return Adam(model.named_params(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)


def set_up(wl: Workload, seed: int) -> Fixture:
    """Data generation, channel statistics, model build and optimizer: the
    work ``setup_s`` times."""
    train_set = make_synthetic(SYNTHETIC, wl.n_train, N_CLASSES, wl.image_size, seed)
    test_set = make_synthetic(SYNTHETIC, wl.n_test, N_CLASSES, wl.image_size, seed + HELD_OUT)
    mean, std = channel_stats(train_set.images)
    model = _new_model(wl)
    optimizer = _new_adam(model) if wl.phase == "train" else None
    return Fixture(train_set, test_set, AugmentPolicy(mean=mean, std=std), model, optimizer)


def _train_config(wl: Workload, seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(batch_size=wl.batch, epochs=epochs, seed=seed)


def warm_up(wl: Workload, fx: Fixture, seed: int, checkpoint: str) -> dict:
    """Run every code path of the workload once before timing: a cold first
    epoch in a fresh process runs about 40% slower than the next ones."""
    try:
        if wl.phase == "train":
            subset = fx.train_set.subset(np.arange(min(wl.warmup_images, wl.n_train)))
            training.run_training(fx.model, subset, fx.test_set, _train_config(wl, seed, 1),
                                  fx.policy, optimizer=fx.optimizer, checkpoint_path=checkpoint)
        else:
            training.evaluate(fx.model, fx.test_set, fx.policy, batch_size=wl.batch)
    except StagenetError as exc:
        return _check("warm_up", False, f"{type(exc).__name__}: {exc}")
    return _check("warm_up", True, "no stagenet error")


def mac_check(wl: Workload, fx: Fixture) -> dict:
    """Sum the MACs of every conv and linear call seen in one forward pass and
    compare with ``count_stats``: the x2 convention minus the x1 convention
    leaves exactly the conv and linear MAC terms."""
    tracer = Tracer()
    x = normalize_batch(fx.test_set.images[:wl.batch], fx.policy)
    with Patches() as patches:
        instrument_model(tracer, patches, fx.model)
        fx.model.forward(x, training=False)
    counted = sum(s.macs for s in tracer.spans)
    shape = x.shape
    expected = fx.model.count_stats(shape, 2).flops - fx.model.count_stats(shape, 1).flops
    return _check("mac_count", counted == expected,
                  f"{counted:,} MACs counted, count_stats gives {expected:,} at {shape}")


def gemm_ceiling_gmacs(reps: int = 7) -> float:
    """Median float32 GMAC/s of a (4096x1024) @ (1024x1024) matmul."""
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    out = np.empty((m, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    times = []
    for _ in range(reps):
        tic = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - tic)
    return m * k * n / statistics.median(times) / 1e9


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


# --------------------------------------------------------------------------
# measured segments
# --------------------------------------------------------------------------

class StepClock:
    """Start and end of every train step or eval batch, and every batch loss.

    This is all that is wrapped when tracing is off: two clock reads and
    one list append per batch.
    """

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.losses: list[float] = []

    def marks_start(self, fn):
        starts = self.starts

        def timed(*args, **kwargs):
            starts.append(time.perf_counter_ns())
            return fn(*args, **kwargs)
        return timed

    def marks_end(self, fn):
        ends = self.ends

        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            ends.append(time.perf_counter_ns())
            return out
        return timed

    def records_loss(self, fn):
        losses = self.losses

        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            losses.append(out[0])
            return out
        return recorded

    def windows(self) -> list[tuple[int, int]]:
        return list(zip(self.starts, self.ends))


# module functions wrapped as the training loop resolves them: name of the
# span, module, attribute
_MODULE_CALLS = (
    ("data.augment_batch", training, "augment_batch"),
    ("data.normalize_batch", training, "normalize_batch"),
    ("scorenorm.batch_cross_entropy", scorenorm, "batch_cross_entropy"),
    ("train.save_checkpoint", training, "save_checkpoint"),
    ("train.load_checkpoint", training, "load_checkpoint"),
)


class Probe:
    """What one measured segment hooks into stagenet: a step clock always,
    and spans around every layer and loop call when traced."""

    def __init__(self, wl: Workload, traced: bool):
        self.clock = StepClock()
        self.tracer = Tracer() if traced else None
        self.patches = Patches()
        self.hooks = Patches()      # on the attached model and optimizer
        start, end = (("augment_batch", None) if wl.phase == "train"
                      else ("normalize_batch", "batch_cross_entropy"))
        for name, module, attr in _MODULE_CALLS:
            fn = getattr(module, attr)
            if self.tracer is not None:
                fn = self.tracer.wrap(fn, name, "call")
            if attr == "batch_cross_entropy":
                fn = self.clock.records_loss(fn)
            if attr == start:
                fn = self.clock.marks_start(fn)
            if attr == end:
                fn = self.clock.marks_end(fn)
            self.patches.set(module, attr, fn)

    def attach(self, model, optimizer):
        """Hook a model (and, in training, its optimizer, whose step ends a
        train step)."""
        if self.tracer is not None:
            instrument_model(self.tracer, self.hooks, model)
        if optimizer is not None:
            step = optimizer.step
            if self.tracer is not None:
                step = self.tracer.wrap(step, "train.adam_step", "call")
            self.hooks.set(optimizer, "step", self.clock.marks_end(step))

    def detach(self):
        """Unhook the attached model and optimizer, so that they can be freed."""
        self.hooks.close()

    def close(self):
        self.hooks.close()
        self.patches.close()


@dataclass
class Segment:
    epoch_s: list = field(default_factory=list)   # run_training epochs or evaluate passes
    setup_s: list = field(default_factory=list)
    images: int = 0
    trajectory: list = field(default_factory=list)
    fixture: Fixture | None = None                # of the last epoch or pass
    error: str | None = None
    windows: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def images_per_s(self) -> float:
        return self.images / sum(self.epoch_s) if self.epoch_s else 0.0


def _out_of_time(seg: Segment, deadline: float) -> bool:
    return time.perf_counter() + statistics.median(seg.epoch_s) > deadline


def _fresh_fixture(wl: Workload, seed: int, probe: Probe, seg: Segment) -> Fixture:
    """Time ``setup_reps`` set-ups and keep the last.  The previous fixture
    is released first, so that one model at a time is alive and
    ``peak_rss_mb`` does not grow with the number of epochs."""
    probe.detach()
    for _ in range(wl.setup_reps):
        seg.fixture = None
        tic = time.perf_counter()
        seg.fixture = set_up(wl, seed)
        seg.setup_s.append(time.perf_counter() - tic)
    return seg.fixture


def _train_epoch(wl: Workload, seed: int, epoch: int, checkpoint: str, probe: Probe,
                 seg: Segment, trajectory: list) -> bool:
    """Set up afresh and train one epoch of a round; False on an error.
    From the second epoch on, model, optimizer and scheduler resume from
    the round's checkpoint, which continues the round bit for bit."""
    fx = _fresh_fixture(wl, seed, probe, seg)
    cfg = _train_config(wl, seed, epoch)
    scheduler = PlateauScheduler(cfg.learning_rate, cfg.scheduler_factor,
                                 cfg.scheduler_patience, cfg.scheduler_threshold, cfg.min_lr)
    probe.attach(fx.model, fx.optimizer)
    try:
        if epoch > 1:
            ckpt = training.load_checkpoint(checkpoint)
            training.restore_model(ckpt, fx.model)
            training.restore_optimizer(ckpt, fx.optimizer)
            scheduler.load_state(ckpt.scheduler_state)
        tic = time.perf_counter()
        rows = training.run_training(fx.model, fx.train_set, fx.test_set, cfg, fx.policy,
                                     start_epoch=epoch, optimizer=fx.optimizer,
                                     scheduler=scheduler, checkpoint_path=checkpoint).rows
    except StagenetError as exc:
        seg.error = f"round {len(seg.trajectory)} epoch {epoch}: {exc}"
        return False
    seg.epoch_s.append(time.perf_counter() - tic)
    seg.images += wl.n_train
    train_row, test_row = rows[-2:]
    trajectory.append((train_row.loss, test_row.loss, test_row.accuracy))
    return True


def _train_rounds(wl: Workload, seed: int, deadline: float, checkpoint: str, probe: Probe,
                  seg: Segment):
    """Rounds of ``round_epochs`` epochs until the next epoch would not fit
    before ``deadline``; the first round always runs to its end."""
    for round_no in itertools.count():
        trajectory = []
        for epoch in range(1, wl.round_epochs + 1):
            if round_no and _out_of_time(seg, deadline):
                return
            if epoch == 1:
                seg.trajectory.append(trajectory)
            if not _train_epoch(wl, seed, epoch, checkpoint, probe, seg, trajectory):
                return


def _eval_pass(wl: Workload, seed: int, probe: Probe, seg: Segment) -> bool:
    """Set up and run one evaluate pass; False on an error."""
    fx = _fresh_fixture(wl, seed, probe, seg)
    probe.attach(fx.model, None)
    tic = time.perf_counter()
    try:
        loss, accuracy = training.evaluate(fx.model, fx.test_set, fx.policy,
                                           batch_size=wl.batch)
    except StagenetError as exc:
        seg.error = f"pass {len(seg.epoch_s) + 1}: {exc}"
        return False
    seg.epoch_s.append(time.perf_counter() - tic)
    seg.images += wl.n_test
    seg.trajectory.append([(loss, accuracy)])
    return True


def measure(wl: Workload, seed: int, seconds: float, checkpoint: str,
            traced: bool) -> Segment:
    """One measured segment followed by its output checks."""
    seg = Segment()
    probe = Probe(wl, traced)
    try:
        deadline = time.perf_counter() + seconds
        if wl.phase == "train":
            _train_rounds(wl, seed, deadline, checkpoint, probe, seg)
        else:
            while _eval_pass(wl, seed, probe, seg) and not _out_of_time(seg, deadline):
                pass
        seg.checks = output_checks(wl, seg, checkpoint)
    finally:
        probe.close()
    seg.windows = probe.clock.windows()
    seg.losses = probe.clock.losses
    seg.spans = probe.tracer.spans if probe.tracer is not None else []
    return seg


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def output_checks(wl: Workload, seg: Segment, checkpoint: str) -> list[dict]:
    checks = [_check("completed", seg.error is None, seg.error or "no stagenet error")]
    if not seg.trajectory or not seg.trajectory[0]:
        return checks
    first = seg.trajectory[0]
    repeats = all(run == first[:len(run)] for run in seg.trajectory)
    unit = "rounds" if wl.phase == "train" else "passes"
    checks.append(_check("repeatable", repeats,
                         f"{len(seg.trajectory)} {unit} against the first"))
    fx = seg.fixture
    probe_x = normalize_batch(fx.test_set.images[:wl.batch], fx.policy)
    out, per_head = fx.model.forward(probe_x, training=False)
    if per_head is not None:
        worst = max(float(np.max(np.abs(np.sum(h.astype(np.float64) ** 2, axis=1) - 1.0)))
                    for h in per_head)
        checks.append(_check("l2_unit_norm", worst <= L2_TOL,
                             f"largest |sum of squares - 1| over {len(per_head)} heads: {worst:.3g}"))
    if wl.phase == "train":
        checks.append(_checkpoint_check(wl, probe_x, out, per_head, checkpoint))
    return checks


def _checkpoint_check(wl: Workload, probe_x, out, per_head, checkpoint: str) -> dict:
    """Restore the last checkpoint into a new model: its eval outputs must
    equal the trained model's bit for bit."""
    try:
        ckpt = training.load_checkpoint(checkpoint)
        restored = _new_model(wl)
        training.restore_model(ckpt, restored)
    except (StagenetError, ValueError) as exc:
        return _check("checkpoint_restore", False, f"{type(exc).__name__}: {exc}")
    out2, per_head2 = restored.forward(probe_x, training=False)
    same = np.array_equal(out, out2) and all(
        np.array_equal(a, b) for a, b in zip(per_head or (), per_head2 or ()))
    return _check("checkpoint_restore", same,
                  f"{os.path.getsize(checkpoint)} bytes, outputs "
                  + ("bit-identical" if same else "differ"))


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(seg: Segment) -> dict:
    step_ms = [(b - a) / 1e6 for a, b in seg.windows]
    p50, p90 = np.percentile(step_ms, [50, 90]) if step_ms else (0.0, 0.0)
    final_loss = seg.trajectory[0][-1][0] if seg.trajectory and seg.trajectory[0] else 0.0
    return {
        "images_per_s": seg.images_per_s,
        "batch_ms_p50": float(p50),
        "batch_ms_p90": float(p90),
        "epoch_s": statistics.median(seg.epoch_s) if seg.epoch_s else 0.0,
        "setup_s": statistics.median(seg.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss": float(final_loss),
    }


def quality(wl: Workload, seg: Segment) -> dict:
    """Loss trajectory and test accuracy; they repeat exactly for a seed."""
    first = seg.trajectory[0] if seg.trajectory else []
    if wl.phase == "train":
        return {"test_accuracy": first[-1][2] if first else None,
                "trajectory": [{"epoch": e, "train_loss": tl, "test_loss": vl, "test_accuracy": va}
                               for e, (tl, vl, va) in enumerate(first, start=1)]}
    return {"test_accuracy": first[0][1] if first else None,
            "trajectory": [{"pass": 1, "test_loss": first[0][0]}] if first else []}


_MS = 1e-6


def per_layer(seg: Segment, ceiling: float) -> dict:
    """Per-step medians over the traced segment's steps (train steps, or
    eval batches on the eval workload); loop calls are per-call medians."""
    spans, windows = seg.spans, seg.windows
    owns = self_times(spans)
    starts = [w[0] for w in windows]
    steps = [defaultdict(int) for _ in windows]
    calls = defaultdict(list)
    for span, own in zip(spans, owns):
        dur = span.end - span.start
        if span.kind == "call":
            calls[span.name].append(dur)
        j = bisect_right(starts, span.start) - 1
        if j < 0 or span.end > windows[j][1]:
            continue
        acc, d = steps[j], span.direction
        if span.parent < 0:
            acc["covered"] += dur
        if span.kind in LAYER_KINDS:
            acc[f"layers.{span.kind}.{d}_ms"] += own
        elif span.kind == "call":
            acc[f"{span.name}_ms"] += dur
        else:
            acc[f"composites.self_{d}_ms"] += own
            if span.kind == "set":
                acc[f"backbones.{span.name}.{d}_ms"] += dur
            elif span.kind == "head":
                acc[f"heads.{span.name}.{d}_ms"] += dur
            elif span.kind == "model":
                acc[f"model.{d}_ms"] += dur
        if span.macs:
            acc[f"layers.{span.kind}.macs"] += span.macs
            acc["model.fwd_macs"] += span.macs
            if span.name.startswith("head"):
                acc["heads.macs"] += span.macs

    def med(key: str, scale: float = 1.0) -> float:
        return statistics.median(s[key] for s in steps) * scale if steps else 0.0

    def per_call(name: str) -> float:
        return statistics.median(calls[name]) * _MS if calls[name] else 0.0

    out = {}
    for kind in LAYER_KINDS:
        for d in ("fwd", "bwd"):
            out[f"layers.{kind}.{d}_ms"] = med(f"layers.{kind}.{d}_ms", _MS)
    for kind in ("conv3x3", "conv1x1"):
        macs = med(f"layers.{kind}.macs")
        out[f"layers.{kind}.macs"] = macs
        # a conv backward computes both dW and dX, each as many MACs as the forward
        for d, work in (("fwd", macs), ("bwd", 2 * macs)):
            ms = out[f"layers.{kind}.{d}_ms"]
            gmacs = work / (ms * 1e6) if ms else 0.0
            out[f"layers.{kind}.{d}_gmacs"] = gmacs
            out[f"layers.{kind}.{d}_peak_share"] = gmacs / ceiling
    for t in range(1, MAX_STAGES + 1):
        for d in ("fwd", "bwd"):
            out[f"heads.head{t}.{d}_ms"] = med(f"heads.head{t}.{d}_ms", _MS)
            out[f"backbones.set{t}.{d}_ms"] = med(f"backbones.set{t}.{d}_ms", _MS)
    total_macs = med("model.fwd_macs")
    out["heads.mac_share"] = med("heads.macs") / total_macs if total_macs else 0.0
    for d in ("fwd", "bwd"):
        out[f"model.{d}_ms"] = med(f"model.{d}_ms", _MS)
        out[f"composites.self_{d}_ms"] = med(f"composites.self_{d}_ms", _MS)
    out["model.fwd_macs"] = total_macs
    out["scorenorm.batch_cross_entropy_ms"] = med("scorenorm.batch_cross_entropy_ms", _MS)
    for name in ("data.augment_batch", "data.normalize_batch", "train.zero_grads",
                 "train.adam_step", "train.save_checkpoint", "train.load_checkpoint"):
        out[f"{name}_ms"] = per_call(name)
    out["gemm_ceiling_gmacs"] = ceiling
    out["trace_coverage"] = (statistics.median(s["covered"] / (b - a)
                                               for s, (a, b) in zip(steps, windows))
                             if steps else 0.0)
    return out


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def _prepare(wl: Workload, seed: int, checkpoint: str) -> list[dict]:
    """The untimed first set-up, the MAC check and the warm-up; their model
    is freed on return, before anything is measured."""
    fx = set_up(wl, seed)
    return [mac_check(wl, fx), warm_up(wl, fx, seed, checkpoint)]


def run(wl: Workload, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """Set up, check MACs, warm up, measure and check one workload.

    With ``traced`` the seconds are split between an untraced and a traced
    segment, so the trace overhead is measured in the same process.
    """
    os.makedirs(workdir, exist_ok=True)
    stem = os.path.join(workdir, f"{wl.name}-seed{seed}-trace{int(traced)}")
    checkpoint = stem + ".ckpt"
    checks = _prepare(wl, seed, stem + "-warmup.ckpt")
    if traced:
        ceiling = gemm_ceiling_gmacs()
        plain = measure(wl, seed, seconds / 2, checkpoint, traced=False)
        seg = measure(wl, seed, seconds / 2, checkpoint, traced=True)
        segments = [plain, seg]
        metrics = per_layer(seg, ceiling)
        metrics["trace_overhead_share"] = 1.0 - seg.images_per_s / plain.images_per_s
        if wl.phase == "train" and os.path.exists(checkpoint):
            metrics["train.checkpoint_bytes"] = os.path.getsize(checkpoint)
        else:
            metrics["train.checkpoint_bytes"] = 0
    else:
        seg = measure(wl, seed, seconds, checkpoint, traced=False)
        segments = [seg]
        metrics = end_to_end(seg)
    for s in segments:
        checks += s.checks
    bad_batches = sum(1 for s in segments for loss in s.losses if not np.isfinite(loss))
    failed = bad_batches + sum(1 for c in checks if not c["ok"])
    attempted = sum(len(s.losses) for s in segments) + len(checks)
    step_ms = [(b - a) / 1e6 for a, b in seg.windows]
    p90 = np.percentile(step_ms, 90) if step_ms else 0.0
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "traced": traced,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": metrics,
        "checks": checks,
        "quality": quality(wl, seg),
        "samples": {"batches": len(step_ms), "beyond_p90": int(sum(v > p90 for v in step_ms)),
                    "epochs": len(seg.epoch_s), "setup_s": seg.setup_s,
                    "batch_ms": step_ms, "epoch_s": seg.epoch_s},
        "environment": environment(),
        "spans": [s.as_list() for s in seg.spans],
    }
