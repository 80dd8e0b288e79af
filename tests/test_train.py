"""Training loop, plateau scheduler and checkpoint files.

Non-finite values stop training with a ``NumericsError`` that names where
they first appeared; the scheduler follows its patience rule; a run resumed
from a checkpoint continues bit-exactly; and a model and its optimizer
restore only from a complete, exact file, while a failed save keeps the
previous one."""

import json
import os
import re
import struct
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import stagenet.scorenorm
import stagenet.train
from stagenet import build_preset
from stagenet.data import AugmentPolicy, make_synthetic
from stagenet.errors import ContractError, FormatError, NumericsError, ShapeError
from stagenet.rng import SeededRng
from stagenet.train import (Adam, PlateauScheduler, TrainConfig, evaluate, load_checkpoint,
                            restore_model, restore_optimizer, run_training, save_checkpoint,
                            train_epoch)

POLICY = AugmentPolicy()


def tiny_data(n, seed):
    return make_synthetic("striped_patterns", n, 4, 8, seed=seed)


class TestNumerics:
    @pytest.mark.parametrize("mode,param,layer", [
        ("multi", "head2.fc.weight", "head2.fc"),
        ("original", "classifier.fc0.weight", "classifier.fc0")])
    @pytest.mark.parametrize("loop", ["train_epoch", "evaluate"])
    def test_nan_weight_names_its_layer(self, mode, param, layer, loop):
        model = build_preset("mini_resnet", mode, n_classes=4)
        model.named_params()[param][0, 0] = np.nan
        params = {k: v.copy() for k, v in model.named_params().items()}
        with pytest.raises(NumericsError, match=re.escape(f"{layer} (fwd)")):
            if loop == "train_epoch":
                train_epoch(model, Adam(model.named_params(), 1e-3), tiny_data(8, 1),
                            TrainConfig(batch_size=4), POLICY, 1)
            else:
                evaluate(model, tiny_data(8, 1), POLICY, batch_size=4)
        for k, v in model.named_params().items():
            assert v.tobytes() == params[k].tobytes(), k

    def test_nan_from_a_backward_names_that_layer(self, monkeypatch):
        model = build_preset("mini_resnet", "multi", n_classes=4)
        bn = model.heads[1].bn
        backward = bn.backward
        monkeypatch.setattr(bn, "backward", lambda g: backward(g) * np.nan)
        params = {k: v.copy() for k, v in model.named_params().items()}
        with pytest.raises(NumericsError, match=r"head2\.bn \(bwd\)"):
            train_epoch(model, Adam(model.named_params(), 1e-3), tiny_data(8, 1),
                        TrainConfig(batch_size=4), POLICY, 1)
        for k, v in model.named_params().items():
            assert v.tobytes() == params[k].tobytes(), k

    def test_adam_overflow_raises_before_any_write(self):
        # the grads stay finite, but above ~1.8e19 their squares overflow float32
        model = build_preset("mini_resnet", "multi", n_classes=4)
        model.named_params()["head3.fc.weight"][...] = 1e30
        optimizer = Adam(model.named_params(), 1e-3)

        def state():
            arrays = {**model.named_params(), **{f"m:{k}": v for k, v in optimizer.m.items()},
                      **{f"v:{k}": v for k, v in optimizer.v.items()}}
            return {k: v.tobytes() for k, v in arrays.items()}

        before = state()
        with pytest.raises(NumericsError, match=r"epoch 1, batch 0: Adam step 1: .* for \S+\.weight"):
            train_epoch(model, optimizer, tiny_data(8, 1), TrainConfig(batch_size=4), POLICY, 1)
        assert optimizer.t == 0
        assert state() == before

    @pytest.mark.parametrize("mode", ["original", "multi"])
    def test_nan_loss_with_finite_layers_raises(self, monkeypatch, mode):
        loss_fn = stagenet.scorenorm.batch_cross_entropy

        def nan_loss(logits, labels):
            return float("nan"), loss_fn(logits, labels)[1]

        monkeypatch.setattr(stagenet.scorenorm, "batch_cross_entropy", nan_loss)
        model = build_preset("mini_cnn", mode, n_classes=4)
        with pytest.raises(NumericsError, match="epoch 3, batch 0: non-finite loss"):
            train_epoch(model, Adam(model.named_params(), 1e-3), tiny_data(8, 1),
                        TrainConfig(batch_size=4), POLICY, 3)


class TestPlateauScheduler:
    def test_lr_drops_on_the_epoch_after_patience_runs_out(self):
        sched = PlateauScheduler(1.0, factor=0.5, patience=2, threshold=0.0)
        assert [sched.update(1.0) for _ in range(4)] == [1.0, 1.0, 1.0, 0.5]

    def test_gain_below_threshold_is_not_an_improvement(self):
        sched = PlateauScheduler(1.0, factor=0.5, patience=1, threshold=0.1)
        sched.update(1.0)
        sched.update(0.95)
        assert (sched.best, sched.bad_epochs) == (1.0, 1)
        sched.update(0.85)
        assert (sched.best, sched.bad_epochs) == (0.85, 0)

    def test_bad_epochs_reset_after_a_drop(self):
        sched = PlateauScheduler(1.0, factor=0.5, patience=1, threshold=0.0)
        lrs = [sched.update(1.0) for _ in range(5)]
        assert lrs == [1.0, 1.0, 0.5, 0.5, 0.25]

    def test_lr_never_goes_below_min_lr(self):
        sched = PlateauScheduler(1.0, factor=0.1, patience=1, threshold=0.0, min_lr=0.05)
        lrs = [sched.update(1.0) for _ in range(9)]
        assert lrs == pytest.approx([1.0, 1.0, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05, 0.05])

    def test_state_round_trips(self):
        sched = PlateauScheduler(1.0, factor=0.5, patience=2, threshold=0.01)
        for loss in (3.0, 2.0, 2.0, 1.995):
            sched.update(loss)
        twin = PlateauScheduler(1.0, factor=0.5, patience=2, threshold=0.01)
        twin.load_state(sched.state())
        assert twin.state() == sched.state() == (1.0, 2.0, 2)
        losses = (1.99, 1.5, 1.5, 1.5, 1.5)
        assert [twin.update(x) for x in losses] == [sched.update(x) for x in losses]


def test_resume_from_checkpoint_is_bit_exact(tmp_path):
    train_set, test_set = tiny_data(12, 1), tiny_data(6, 2)
    # a threshold no epoch beats makes the lr drop between the halves
    cfg = TrainConfig(batch_size=4, epochs=4, seed=7, scheduler_patience=1,
                      scheduler_threshold=10.0)
    straight = build_preset("mini_resnet", "multi", n_classes=4, seed=3)
    whole = run_training(straight, train_set, test_set, cfg, POLICY).rows

    path = str(tmp_path / "run.ckpt")
    first = run_training(build_preset("mini_resnet", "multi", n_classes=4, seed=3),
                         train_set, test_set, replace(cfg, epochs=2), POLICY,
                         checkpoint_path=path).rows
    ckpt = load_checkpoint(path)
    resumed = build_preset("mini_resnet", "multi", n_classes=4, seed=9)
    restore_model(ckpt, resumed)
    optimizer = Adam(resumed.named_params(), cfg.learning_rate, cfg.beta1, cfg.beta2,
                     cfg.adam_eps)
    restore_optimizer(ckpt, optimizer)
    scheduler = PlateauScheduler(cfg.learning_rate, cfg.scheduler_factor,
                                 cfg.scheduler_patience, cfg.scheduler_threshold, cfg.min_lr)
    scheduler.load_state(ckpt.scheduler_state)
    second = run_training(resumed, train_set, test_set, cfg, POLICY,
                          start_epoch=ckpt.epoch_next, optimizer=optimizer,
                          scheduler=scheduler).rows

    def key(rows):
        return [(r.epoch, r.split, np.float64(r.loss).tobytes(), r.accuracy, r.lr)
                for r in rows]

    assert key(first + second) == key(whole)
    assert whole[-1].lr < whole[0].lr
    for named in ("named_params", "named_buffers"):
        expected = getattr(straight, named)()
        got = getattr(resumed, named)()
        assert got.keys() == expected.keys()
        for k, v in got.items():
            assert v.tobytes() == expected[k].tobytes(), k


def saved_checkpoint(tmp_path, mode):
    model = build_preset("mini_vgg", mode, n_classes=4, seed=1)
    path = str(tmp_path / f"{mode}.ckpt")
    save_checkpoint(path, model, Adam(model.named_params(), 1e-3), PlateauScheduler(1e-3),
                    TrainConfig(), 2)
    return path


class TestCheckpointKeys:
    def test_complete_checkpoint_restores(self, tmp_path):
        ckpt = load_checkpoint(saved_checkpoint(tmp_path, "multi"))
        model = build_preset("mini_vgg", "multi", n_classes=4, seed=2)
        restore_model(ckpt, model)
        for k, v in model.named_params().items():
            assert np.array_equal(v, ckpt.tensors[f"param:{k}"]), k

    @pytest.mark.parametrize("mode,key", [("original", "param:set1.block0.conv0.weight"),
                                          ("multi", "buffer:head2.bn.running_var")])
    def test_missing_tensor_rejected(self, tmp_path, mode, key):
        ckpt = load_checkpoint(saved_checkpoint(tmp_path, mode))
        del ckpt.tensors[key]
        with pytest.raises(ShapeError, match=key):
            restore_model(ckpt, build_preset("mini_vgg", mode, n_classes=4, seed=2))

    def test_extra_tensor_rejected_before_anything_is_copied(self, tmp_path):
        ckpt = load_checkpoint(saved_checkpoint(tmp_path, "original"))
        ckpt.tensors["param:set9.block0.conv0.weight"] = np.zeros(3, dtype=np.float32)
        model = build_preset("mini_vgg", "original", n_classes=4, seed=2)
        before = {k: v.copy() for k, v in model.named_params().items()}
        with pytest.raises(ShapeError, match="set9"):
            restore_model(ckpt, model)
        for k, v in model.named_params().items():
            assert np.array_equal(v, before[k]), k

    def test_trailing_bytes_rejected(self, tmp_path):
        path = saved_checkpoint(tmp_path, "original")
        with open(path, "ab") as fh:
            fh.write(b"\0\0\0\0")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)


def file_regions(raw):
    """Byte offsets inside each region of a checkpoint: the head ``<8sQQ``
    (magic, header length, payload length), the JSON header, the payload
    and the CRC32 that closes the file."""
    _, hlen, plen = struct.unpack_from("<8sQQ", raw)
    payload = 24 + hlen
    return {"magic": 0, "header_length": 8, "payload_length": 16, "header": 24 + hlen // 2,
            "payload_start": payload, "payload_middle": payload + plen // 2,
            "payload_end": payload + plen - 1, "crc": len(raw) - 1}


def rewrite(path, edit):
    """Re-encode a checkpoint after ``edit(header, payload)`` under a valid CRC32
    of every byte after the magic."""
    raw = Path(path).read_bytes()
    _, hlen, plen = struct.unpack_from("<8sQQ", raw)
    header, payload = edit(json.loads(raw[24:24 + hlen]), raw[24 + hlen:24 + hlen + plen])
    blob = json.dumps(header).encode("utf-8")
    body = struct.pack("<QQ", len(blob), len(payload)) + blob + payload
    Path(path).write_bytes(b"STGNCKP2" + body + struct.pack("<I", zlib.crc32(body)))


class TestCheckpointFile:
    def test_layout_round_trips(self, tmp_path):
        path = saved_checkpoint(tmp_path, "multi")
        saved = load_checkpoint(path)
        rewrite(path, lambda header, payload: (header, payload))
        ckpt = load_checkpoint(path)
        assert (ckpt.config, ckpt.epoch_next, ckpt.adam_t, ckpt.scheduler_state) == \
            (asdict(TrainConfig()), 2, 0, (1e-3, np.inf, 0))
        assert list(ckpt.tensors) == list(saved.tensors)
        for k, v in saved.tensors.items():
            assert v.dtype == ckpt.tensors[k].dtype and v.tobytes() == ckpt.tensors[k].tobytes(), k

    @pytest.mark.parametrize("region", ["magic", "header_length", "payload_length", "header",
                                        "payload_start", "payload_middle", "payload_end", "crc"])
    def test_one_flipped_byte_rejected(self, tmp_path, region):
        path = saved_checkpoint(tmp_path, "multi")
        raw = bytearray(Path(path).read_bytes())
        raw[file_regions(raw)[region]] ^= 0xFF
        Path(path).write_bytes(raw)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [0, 5, 20, 100, "half", "all but one"])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = saved_checkpoint(tmp_path, "original")
        raw = Path(path).read_bytes()
        keep = {"half": len(raw) // 2, "all but one": len(raw) - 1}.get(keep, keep)
        Path(path).write_bytes(raw[:keep])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_old_format_rejected(self, tmp_path):
        path = saved_checkpoint(tmp_path, "original")
        Path(path).write_bytes(b"STGNCKP1" + Path(path).read_bytes()[8:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        (lambda h, p: ({**h, "tensors": [[n, "float16", s] for n, _, s in h["tensors"]]}, p),
         "dtype"),
        (lambda h, p: (h, p[:-4]), "payload"),
        (lambda h, p: ({k: v for k, v in h.items() if k != "adam_t"}, p), "adam_t"),
    ])
    def test_bad_header_under_a_valid_crc_rejected(self, tmp_path, edit, match):
        path = saved_checkpoint(tmp_path, "original")
        rewrite(path, edit)
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_unsupported_dtype_not_saved(self, tmp_path):
        model = build_preset("mini_vgg", "original", n_classes=4, seed=1)
        opt = Adam(model.named_params(), 1e-3)
        key = next(iter(opt.m))
        opt.m[key] = opt.m[key].astype(np.float16)
        path = str(tmp_path / "run.ckpt")
        with pytest.raises(ContractError, match=f"adam_m:{key}"):
            save_checkpoint(path, model, opt, PlateauScheduler(1e-3), TrainConfig(), 2)
        assert os.listdir(tmp_path) == []


def trained_optimizer(model, seed):
    """An Adam whose moments and step count are all non-zero."""
    opt = Adam(model.named_params(), 1e-3)
    rng = SeededRng(seed)
    for _ in range(2):
        opt.step(model.named_params(),
                 {k: rng.uniform(-1, 1, v.shape).astype(v.dtype)
                  for k, v in model.named_params().items()})
    return opt


class TestOptimizerKeys:
    def restore_fails(self, tmp_path, edit, match):
        ckpt = load_checkpoint(saved_checkpoint(tmp_path, "original"))
        edit(ckpt.tensors)
        model = build_preset("mini_vgg", "original", n_classes=4, seed=2)
        opt = trained_optimizer(model, 3)
        before = [(m.copy(), opt.v[k].copy()) for k, m in opt.m.items()]
        with pytest.raises(ShapeError, match=match):
            restore_optimizer(ckpt, opt)
        assert opt.t == 2
        for (k, m), (m0, v0) in zip(opt.m.items(), before):
            assert np.array_equal(m, m0) and np.array_equal(opt.v[k], v0), k

    def test_missing_moment_rejected(self, tmp_path):
        key = "adam_m:set2.block0.conv1.weight"
        self.restore_fails(tmp_path, lambda t: t.pop(key), key)

    def test_extra_moment_rejected(self, tmp_path):
        key = "adam_m:set9.x"
        self.restore_fails(tmp_path, lambda t: t.update({key: np.zeros(3, np.float32)}), key)

    def test_wrong_shape_moment_rejected(self, tmp_path):
        key = "adam_v:set1.block0.conv0.bias"
        self.restore_fails(tmp_path, lambda t: t.update({key: np.zeros(1, np.float32)}), key)


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model = build_preset("mini_vgg", "multi", n_classes=4, seed=1)
        opt = trained_optimizer(model, 4)
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, model, opt, PlateauScheduler(1e-3), TrainConfig(), 2)
        with open(path, "rb") as fh:
            first = fh.read()
        x = SeededRng(5).uniform(0, 1, (2, 3, 16, 16), dtype=np.float32)
        expected = model.forward(x)[0]

        calls = []

        def failing_fsync(fd):
            calls.append(fd)
            raise OSError("disk full")

        monkeypatch.setattr(stagenet.train.os, "fsync", failing_fsync)
        for p in model.named_params().values():
            p += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, opt, PlateauScheduler(1e-3), TrainConfig(), 3)
        assert len(calls) == 1
        assert os.listdir(tmp_path) == ["run.ckpt"]
        with open(path, "rb") as fh:
            assert fh.read() == first

        ckpt = load_checkpoint(path)
        restored = build_preset("mini_vgg", "multi", n_classes=4, seed=2)
        restore_model(ckpt, restored)
        assert restored.forward(x)[0].tobytes() == expected.tobytes()


@dataclass
class ConfigWithDroppedKeys(TrainConfig):
    """The config of older checkpoints, which also stored augmentation and
    precision switches that nothing read."""
    crop: bool = True
    flip: bool = True
    erase: bool = True
    precision: str = "float32"


def test_checkpoint_with_dropped_config_keys_restores(tmp_path):
    model = build_preset("mini_vgg", "original", n_classes=4, seed=1)
    opt = trained_optimizer(model, 6)
    path = str(tmp_path / "old.ckpt")
    save_checkpoint(path, model, opt, PlateauScheduler(1e-3), ConfigWithDroppedKeys(), 2)
    ckpt = load_checkpoint(path)
    assert {"crop", "flip", "erase", "precision"} <= ckpt.config.keys()
    restored = build_preset("mini_vgg", "original", n_classes=4, seed=2)
    restored_opt = Adam(restored.named_params(), 1e-3)
    restore_model(ckpt, restored)
    restore_optimizer(ckpt, restored_opt)
    assert restored_opt.t == opt.t
    for k, v in model.named_params().items():
        assert restored.named_params()[k].tobytes() == v.tobytes(), k
    for k in opt.m:
        assert restored_opt.m[k].tobytes() == opt.m[k].tobytes(), k
        assert restored_opt.v[k].tobytes() == opt.v[k].tobytes(), k
