"""Training loop, Adam optimizer, plateau scheduler, and checkpointing.

A run is fully determined by (seed, config, dataset): shuffling draws
from stream (seed, epoch), per-sample augmentation from stream
(seed, epoch*M + index), and weight init from the build seed, so
repeated runs produce identical metrics and a restored checkpoint
continues bit-exactly.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import scorenorm
from .backbones import Model
from .data import AugmentPolicy, Dataset, augment_batch, normalize_batch
from .errors import ConfigError, ContractError, FormatError, NumericsError, ShapeError
from .heads import predict
from .layers import BatchNorm2d
from .rng import SeededRng

_SHUFFLE_TAG = 1 << 48


@dataclass
class TrainConfig:
    """Training-loop parameters; defaults follow the experiment protocol."""
    learning_rate: float = 0.001
    batch_size: int = 100
    epochs: int = 300
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    scheduler_factor: float = 0.1
    scheduler_patience: int = 10
    scheduler_threshold: float = 1e-4
    min_lr: float = 1e-6
    seed: int = 0

    def validate(self):
        if self.learning_rate <= 0 or self.min_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if not (0 < self.scheduler_factor < 1):
            raise ConfigError("scheduler factor must lie in (0,1)")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.scheduler_patience < 1:
            raise ConfigError("patience must be >= 1")
        return self


@dataclass
class EpochRow:
    epoch: int
    split: str
    loss: float
    accuracy: float
    lr: float
    seconds: float


@dataclass
class RunMetrics:
    """Per-epoch rows plus the best test accuracy and when it happened."""
    rows: list = field(default_factory=list)
    best_test_accuracy: float = 0.0
    best_epoch: int = 0

    def add(self, row: EpochRow):
        self.rows.append(row)
        if row.split == "test" and row.accuracy > self.best_test_accuracy:
            self.best_test_accuracy = row.accuracy
            self.best_epoch = row.epoch


class Adam(object):
    """Adam with bias correction; zero gradients leave parameters unchanged."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict):
        """Update every param in place.  The new moments and updates are all
        computed first: if any is non-finite (a finite grad above ~1.8e19
        squares to inf in float32), ``NumericsError`` names the first such
        param, and no param, moment or ``t`` has changed."""
        t = self.t + 1
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        staged = []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, p in params.items():
                g = grads[k]
                if g.shape != p.shape:
                    raise ShapeError(f"{k}: grad shape {g.shape} != param shape {p.shape}")
                m = self.m[k] + (1.0 - self.beta1) * (g - self.m[k])
                v = self.v[k] + (1.0 - self.beta2) * (g * g - self.v[k])
                update = (self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(p.dtype)
                if not _all_finite([v, update]):  # a non-finite m makes the update so
                    raise NumericsError(f"Adam step {t}: non-finite moment or update for {k}")
                staged.append((k, p, m, v, update))
        for k, p, m, v, update in staged:
            self.m[k] = m
            self.v[k] = v
            p -= update
        self.t = t


class PlateauScheduler:
    """Multiply lr by ``factor`` after ``patience`` epochs without an
    improvement larger than ``threshold``; never below ``min_lr``."""

    def __init__(self, lr: float, factor: float = 0.1, patience: int = 10,
                 threshold: float = 1e-4, min_lr: float = 1e-6):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.min_lr = min_lr
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, monitored_loss: float) -> float:
        if monitored_loss < self.best - self.threshold:
            self.best = monitored_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs > self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.bad_epochs = 0
        return self.lr

    def state(self) -> tuple:
        return (self.lr, float(self.best), self.bad_epochs)

    def load_state(self, state):
        self.lr, self.best, self.bad_epochs = state[0], state[1], int(state[2])


def _has_batchnorm(model: Model) -> bool:
    return any(isinstance(layer, BatchNorm2d) for _, layer in model.modules())


def _batch_slices(m: int, batch_size: int):
    """Full batches plus a trailing partial batch when it has >= 2 samples
    (a single leftover sample cannot feed train-mode batchnorm)."""
    out = []
    for start in range(0, m, batch_size):
        stop = min(start + batch_size, m)
        if stop - start >= 2 or stop - start == batch_size:
            out.append((start, stop))
    return out


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _raise_at_first_nonfinite(model: Model, x: np.ndarray, labels: np.ndarray,
                              training: bool, where: str):
    """Re-run one batch under a hook and raise ``NumericsError`` naming
    the first layer, in execution order, whose output (fwd) or whose dx or
    parameter gradients (bwd) are non-finite; or the loss, when every
    layer stayed finite.  The batch runs forward, loss and, if
    ``training``, backward, which moves batchnorm running statistics again."""

    def check(name, layer, direction, out):
        if not _all_finite([out, *layer.grads.values()] if direction == "bwd" else [out]):
            raise NumericsError(f"{where}: first non-finite values at {name} ({direction})")

    with model.hooked(check), np.errstate(all="ignore"):
        out, _ = model.forward(x, training=training)
        loss, grad = scorenorm.batch_cross_entropy(out, labels)
        if not (np.isfinite(loss) and _all_finite([grad])):
            raise NumericsError(f"{where}: non-finite loss, every layer output finite")
        if training:
            model.zero_grads()
            model.backward(grad)
    raise NumericsError(f"{where}: non-finite values that did not recur on a re-run")


def train_epoch(model: Model, optimizer: Adam, train_set: Dataset,
                cfg: TrainConfig, policy: AugmentPolicy, epoch: int):
    """One pass over shuffled mini-batches, each drawn through
    ``augment_batch``; returns (mean loss, accuracy).

    Before each optimizer step the loss and every parameter gradient must
    be finite.  Otherwise the step is skipped, so no parameter changes,
    and ``NumericsError`` names where the batch first went non-finite
    (``head2.fc (fwd)``, ``head2.bn (bwd)`` or the loss).  A step that
    would make a moment or a parameter non-finite raises ``Adam.step``'s
    error, prefixed with the epoch and batch, and changes nothing."""
    m = len(train_set)
    if m == 0:
        raise ContractError("training dataset is empty")
    perm = SeededRng(cfg.seed, _SHUFFLE_TAG + epoch).permutation(m)
    total_loss = 0.0
    total_correct = 0
    total_seen = 0
    for i, (start, stop) in enumerate(_batch_slices(m, cfg.batch_size)):
        idx = perm[start:stop]
        x = augment_batch(train_set, idx, policy, cfg.seed, epoch).astype(model.dtype)
        labels = train_set.labels[idx]
        out, _ = model.forward(x, training=True)
        loss, grad = scorenorm.batch_cross_entropy(out, labels)
        model.zero_grads()
        model.backward(grad)
        grads = model.named_grads()
        if not (np.isfinite(loss) and _all_finite(grads.values())):
            _raise_at_first_nonfinite(model, x, labels, True, f"epoch {epoch}, batch {i}")
        try:
            optimizer.step(model.named_params(), grads)
        except NumericsError as err:
            raise NumericsError(f"epoch {epoch}, batch {i}: {err}") from err
        n = stop - start
        total_loss += loss * n
        total_correct += int(np.sum(predict(out) == labels))
        total_seen += n
    return total_loss / total_seen, total_correct / total_seen


def evaluate(model: Model, dataset: Dataset, policy: AugmentPolicy,
             batch_size: int = 200):
    """Eval-mode loss and accuracy; applies normalization only.  A batch
    whose loss is non-finite raises ``NumericsError`` naming the first
    non-finite layer output (``head2.fc (fwd)``) or the loss."""
    if len(dataset) == 0:
        raise ContractError("evaluation dataset is empty")
    total_loss = 0.0
    correct = 0
    for i, start in enumerate(range(0, len(dataset), batch_size)):
        stop = min(start + batch_size, len(dataset))
        x = normalize_batch(dataset.images[start:stop], policy).astype(model.dtype)
        labels = dataset.labels[start:stop]
        out, _ = model.forward(x, training=False)
        loss, _ = scorenorm.batch_cross_entropy(out, labels)
        if not np.isfinite(loss):
            _raise_at_first_nonfinite(model, x, labels, False, f"evaluation, batch {i}")
        total_loss += loss * (stop - start)
        correct += int(np.sum(predict(out) == labels))
    return total_loss / len(dataset), correct / len(dataset)


def run_training(model: Model, train_set: Dataset, test_set: Dataset,
                 cfg: TrainConfig, policy: AugmentPolicy,
                 start_epoch: int = 1, optimizer: Adam | None = None,
                 scheduler: PlateauScheduler | None = None,
                 checkpoint_path: str | None = None) -> RunMetrics:
    """Drive epochs ``start_epoch..cfg.epochs`` and collect metrics rows."""
    cfg.validate()
    if _has_batchnorm(model) and cfg.batch_size < 2:
        raise ConfigError("batch size must be >= 2 when batchnorm trains")
    optimizer = optimizer or Adam(model.named_params(), cfg.learning_rate,
                                  cfg.beta1, cfg.beta2, cfg.adam_eps)
    scheduler = scheduler or PlateauScheduler(cfg.learning_rate, cfg.scheduler_factor,
                                              cfg.scheduler_patience,
                                              cfg.scheduler_threshold, cfg.min_lr)
    metrics = RunMetrics()
    for epoch in range(start_epoch, cfg.epochs + 1):
        tic = time.perf_counter()
        optimizer.lr = scheduler.lr
        train_loss, train_acc = train_epoch(model, optimizer, train_set, cfg, policy, epoch)
        lr_used = scheduler.lr
        scheduler.update(train_loss)
        test_loss, test_acc = evaluate(model, test_set, policy,
                                       batch_size=max(cfg.batch_size, 2))
        secs = time.perf_counter() - tic
        metrics.add(EpochRow(epoch, "train", train_loss, train_acc, lr_used, secs))
        metrics.add(EpochRow(epoch, "test", test_loss, test_acc, lr_used, secs))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, model, optimizer, scheduler,
                            cfg, epoch + 1)
    return metrics


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

MAGIC = b"STGNCKP2"
_HEAD = struct.Struct("<8sQQ")  # magic, header length, payload length
_CRC = struct.Struct("<I")
_DTYPES = ("float32", "float64", "int64")


@dataclass
class Checkpoint:
    config: dict
    epoch_next: int
    adam_t: int
    scheduler_state: tuple
    tensors: dict


def save_checkpoint(path: str, model: Model, optimizer: Adam,
                    scheduler: PlateauScheduler, cfg: TrainConfig,
                    epoch_next: int):
    """Write one file: the head ``<8sQQ`` (magic ``STGNCKP2``, header
    length, payload length); a UTF-8 JSON header holding the config, the
    counters, the scheduler state and each tensor's ``[name, dtype, shape]``
    (params, buffers, then the Adam moments); the tensors' little-endian
    bytes in that order; and the CRC32 of every byte after the magic.
    Only float32, float64 and int64 tensors are stored.  Written to
    ``path + ".tmp"``, synced, then renamed over ``path``, so a failed save
    leaves the previous file intact."""
    tensors = [(f"{kind}:{name}", arr)
               for kind, arrays in (("param", model.named_params()),
                                    ("buffer", model.named_buffers()),
                                    ("adam_m", optimizer.m), ("adam_v", optimizer.v))
               for name, arr in arrays.items()]
    for name, arr in tensors:
        if arr.dtype.name not in _DTYPES:
            raise ContractError(f"{name}: unsupported checkpoint dtype {arr.dtype}")
    header = json.dumps({"config": asdict(cfg), "epoch_next": epoch_next,
                         "adam_t": optimizer.t, "scheduler": scheduler.state(),
                         "tensors": [[name, arr.dtype.name, arr.shape] for name, arr in tensors]},
                        sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).tobytes()
                       for _, arr in tensors)
    head = _HEAD.pack(MAGIC, len(header), len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header, zlib.crc32(head[len(MAGIC):])))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as out:
            for part in (head, header, payload, _CRC.pack(crc)):
                out.write(part)
            out.flush()
            os.fsync(out.fileno())  # the data must be on disk before the rename
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Read a file written by ``save_checkpoint``.  The magic, the exact
    file size the head declares and the CRC32 are checked before the header
    is parsed; any failure raises ``FormatError``, and a file of another
    format version is rejected by its magic."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(MAGIC):
        raise FormatError("checkpoint truncated" if MAGIC.startswith(buf)
                          else "bad magic bytes; not a stagenet v2 checkpoint")
    if len(buf) < _HEAD.size + _CRC.size:
        raise FormatError("checkpoint truncated")
    _, hlen, plen = _HEAD.unpack_from(buf)
    crc_at = _HEAD.size + hlen + plen
    size = crc_at + _CRC.size
    if len(buf) < size:
        raise FormatError(f"checkpoint truncated: {len(buf)} of {size} bytes")
    if len(buf) > size:
        raise FormatError(f"{len(buf) - size} trailing bytes after the checksum")
    if zlib.crc32(memoryview(buf)[len(MAGIC):crc_at]) != _CRC.unpack_from(buf, crc_at)[0]:
        raise FormatError("checksum mismatch; the checkpoint is damaged")
    try:
        header = json.loads(buf[_HEAD.size:_HEAD.size + hlen].decode("utf-8"))
        tensors = {}
        offset = _HEAD.size + hlen
        for name, dtype, shape in header["tensors"]:
            if dtype not in _DTYPES:
                raise FormatError(f"{name}: unsupported checkpoint dtype {dtype!r}")
            count = int(np.prod(shape, dtype=np.int64))
            arr = np.frombuffer(buf, np.dtype(dtype).newbyteorder("<"), count, offset)
            tensors[name] = arr.astype(dtype).reshape(shape)
            offset += arr.nbytes
        if offset != crc_at:
            raise FormatError(f"tensors end at byte {offset}, the payload at {crc_at}")
        return Checkpoint(config=header["config"], epoch_next=header["epoch_next"],
                          adam_t=header["adam_t"], scheduler_state=tuple(header["scheduler"]),
                          tensors=tensors)
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc


def _copy_exact(ckpt: Checkpoint, kinds: tuple, targets: dict) -> None:
    """Copy the checkpoint tensors whose name prefix is in ``kinds`` into
    ``targets`` in place.  Names and shapes must match exactly; all are
    checked first, and a mismatch copies nothing and names the first bad key."""
    stored = {k: v for k, v in ckpt.tensors.items() if k.partition(":")[0] in kinds}
    missing = [key for key in targets if key not in stored]
    if missing:
        raise ShapeError(f"checkpoint lacks {len(missing)} tensor(s), first {missing[0]!r}")
    for key, arr in stored.items():
        target = targets.get(key)
        if target is None:
            raise ShapeError(f"checkpoint tensor {key!r} has no counterpart")
        if target.shape != arr.shape:
            raise ShapeError(f"tensor {key!r}: checkpoint shape {arr.shape} "
                             f"!= target shape {target.shape}")
    for key, arr in stored.items():
        targets[key][...] = arr.astype(targets[key].dtype)


def restore_model(ckpt: Checkpoint, model: Model) -> None:
    """Copy the checkpoint's params and buffers into a model (``_copy_exact``)."""
    targets = {f"param:{k}": v for k, v in model.named_params().items()}
    targets.update({f"buffer:{k}": v for k, v in model.named_buffers().items()})
    _copy_exact(ckpt, ("param", "buffer"), targets)


def restore_optimizer(ckpt: Checkpoint, optimizer: Adam) -> None:
    """Copy the checkpoint's Adam moments (``_copy_exact``) and step count."""
    targets = {f"adam_m:{k}": v for k, v in optimizer.m.items()}
    targets.update({f"adam_v:{k}": v for k, v in optimizer.v.items()})
    _copy_exact(ckpt, ("adam_m", "adam_v"), targets)
    optimizer.t = ckpt.adam_t
