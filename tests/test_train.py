"""Checkpoint files: a model restores only from a complete, exact file."""

import numpy as np
import pytest

from stagenet import build_preset
from stagenet.errors import FormatError, ShapeError
from stagenet.train import (Adam, PlateauScheduler, TrainConfig, load_checkpoint,
                            restore_model, save_checkpoint)


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
