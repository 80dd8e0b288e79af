"""Tests of the benchmark itself: span arithmetic and a tiny end-to-end run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import stagenet.scorenorm  # noqa: E402
import stagenet.train  # noqa: E402
from stagenet.layers import Conv2d  # noqa: E402
from spans import Patches, Span, Tracer, conv_macs, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, run, set_up  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Same layers and checks as the real workloads, at a size that runs in about a second.
SMOKE = Workload("smoke_multi", "mini_resnet", "multi", "train", n_train=40, n_test=20,
                 batch=20, image_size=16, setup_reps=2, warmup_images=20)


def test_self_time_of_hand_built_tree():
    spans = [
        Span("root", "model", "fwd", 0, 100),
        Span("a", "composite", "fwd", 10, 40, parent=0),
        Span("b", "composite", "fwd", 50, 70, parent=0),
        Span("a.leaf", "relu", "fwd", 15, 20, parent=1),
        Span("a.leaf2", "relu", "fwd", 25, 35, parent=1),
        Span("other", "call", "call", 200, 230),
    ]
    assert self_times(spans) == [50, 15, 20, 5, 10, 30]


def test_tracer_records_nesting_and_conv_macs():
    tracer = Tracer()
    conv = Conv2d(3, 8, 3, pad=1)
    inner = tracer.wrap(conv.forward, "conv", "conv3x3", "fwd", conv_macs(conv))
    outer = tracer.wrap(lambda x: inner(x), "block", "composite", "fwd")
    outer(np.zeros((2, 3, 5, 5), dtype=np.float32))
    block, conv_span = tracer.spans
    assert (block.parent, conv_span.parent) == (-1, 0)
    assert block.start <= conv_span.start <= conv_span.end <= block.end
    assert conv_span.macs == 8 * 3 * 9 * 5 * 5 * 2


def test_patches_restore_module_and_instance_attributes():
    conv = Conv2d(3, 8, 3)
    original = stagenet.train.augment_batch
    with Patches() as patches:
        patches.set(stagenet.train, "augment_batch", len)
        patches.set(conv, "forward", len)
        assert stagenet.train.augment_batch is len and conv.forward is len
    assert stagenet.train.augment_batch is original
    assert "forward" not in vars(conv)


def _names(section):
    return {m["name"] for m in SPEC[section]}


def test_smoke_run_passes_every_check(tmp_path):
    rec = run(SMOKE, seed=5, seconds=0, traced=False, workdir=str(tmp_path))
    checks = {c["name"]: c["ok"] for c in rec["checks"]}
    assert checks == {"mac_count": True, "warm_up": True, "completed": True,
                      "repeatable": True, "l2_unit_norm": True, "checkpoint_restore": True}
    assert rec["correct"] and rec["failed"] == 0 and rec["failed_share"] == 0
    assert _names("end_to_end") <= set(rec["metrics"])
    assert all(v > 0 for v in rec["metrics"].values())
    trajectory = rec["quality"]["trajectory"]
    assert [row["epoch"] for row in trajectory] == [1, 2]
    assert all(np.isfinite(row["train_loss"]) for row in trajectory)


def test_resumed_epochs_match_an_uninterrupted_run(tmp_path):
    rec = run(SMOKE, seed=5, seconds=0, traced=False, workdir=str(tmp_path))
    fx = set_up(SMOKE, 5)
    cfg = stagenet.train.TrainConfig(batch_size=SMOKE.batch, epochs=SMOKE.round_epochs, seed=5)
    rows = stagenet.train.run_training(fx.model, fx.train_set, fx.test_set, cfg, fx.policy,
                                       optimizer=fx.optimizer).rows
    assert [row["train_loss"] for row in rec["quality"]["trajectory"]] == \
        [r.loss for r in rows if r.split == "train"]


def test_smoke_run_repeats_its_quality_exactly(tmp_path):
    first = run(SMOKE, seed=5, seconds=0, traced=False, workdir=str(tmp_path))
    again = run(SMOKE, seed=5, seconds=0, traced=False, workdir=str(tmp_path))
    assert first["quality"] == again["quality"]
    assert first["metrics"]["final_loss"] == again["metrics"]["final_loss"]


def test_traced_smoke_run_reports_every_per_layer_metric(tmp_path):
    rec = run(SMOKE, seed=5, seconds=0, traced=True, workdir=str(tmp_path))
    m = rec["metrics"]
    assert rec["correct"]
    assert _names("per_layer") <= set(m)
    assert 0.9 < m["trace_coverage"] <= 1.0
    assert m["layers.conv3x3.fwd_ms"] > 0 and m["layers.conv3x3.bwd_ms"] > 0
    assert m["layers.maxpool2x2.fwd_ms"] == 0          # mini_resnet does not pool
    assert 0 < m["heads.mac_share"] < 1
    assert m["train.checkpoint_bytes"] > 0 and m["train.load_checkpoint_ms"] > 0


def test_eval_smoke_run(tmp_path):
    wl = replace(SMOKE, name="smoke_eval", phase="eval")
    rec = run(wl, seed=5, seconds=0, traced=True, workdir=str(tmp_path))
    assert rec["correct"]
    assert {c["name"] for c in rec["checks"]} == {"mac_count", "warm_up", "completed",
                                                  "repeatable", "l2_unit_norm"}
    assert rec["metrics"]["layers.conv3x3.bwd_ms"] == 0
    assert rec["metrics"]["data.augment_batch_ms"] == 0


def test_corrupted_checkpoint_raises_failed_share(tmp_path, monkeypatch):
    save = stagenet.train.save_checkpoint

    def save_then_corrupt(path, *args, **kwargs):
        save(path, *args, **kwargs)
        raw = bytearray(Path(path).read_bytes())
        raw[len(raw) // 5] ^= 0xFF       # lands in the parameter records
        Path(path).write_bytes(bytes(raw))

    monkeypatch.setattr(stagenet.train, "save_checkpoint", save_then_corrupt)
    rec = run(SMOKE, seed=5, seconds=0, traced=False, workdir=str(tmp_path))
    assert not rec["correct"]
    assert rec["failed_share"] > 0
    assert [c["ok"] for c in rec["checks"] if c["name"] == "checkpoint_restore"] == [False]


def test_non_finite_loss_raises_failed_share(tmp_path, monkeypatch):
    loss_fn = stagenet.scorenorm.batch_cross_entropy

    def nan_loss(logits, labels):
        _, grad = loss_fn(logits, labels)
        return float("nan"), grad

    monkeypatch.setattr(stagenet.scorenorm, "batch_cross_entropy", nan_loss)
    rec = run(SMOKE, seed=5, seconds=0, traced=False, workdir=str(tmp_path))
    assert not rec["correct"]
    assert rec["failed_share"] > 0
    assert [c["ok"] for c in rec["checks"] if c["name"] == "completed"] == [False]


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
