"""Checkpoint files: a model and its optimizer restore only from a
complete, exact file, and a failed save keeps the previous one."""

import os
from dataclasses import dataclass

import numpy as np
import pytest

import stagenet.train
from stagenet import build_preset
from stagenet.errors import FormatError, ShapeError
from stagenet.rng import SeededRng
from stagenet.train import (Adam, PlateauScheduler, TrainConfig, load_checkpoint,
                            restore_model, restore_optimizer, save_checkpoint)


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

        write_record = stagenet.train._write_record
        calls = []

        def failing_write(out, name, arr):
            calls.append(name)
            if len(calls) == 5:
                raise OSError("disk full")
            write_record(out, name, arr)

        monkeypatch.setattr(stagenet.train, "_write_record", failing_write)
        for p in model.named_params().values():
            p += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, opt, PlateauScheduler(1e-3), TrainConfig(), 3)
        assert len(calls) == 5
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
