"""Backbone construction, forward contracts, and complexity accounting."""

import inspect
import zlib
from typing import get_args

import numpy as np
import pytest

from stagenet import build, build_preset
from stagenet.backbones import PRESETS, BackboneSpec, OriginalClassifier, SetSpec, StageKind
from stagenet.errors import BuildError, ContractError, ShapeError
from stagenet.heads import ClassifierHead
from stagenet.layers import Conv2d, Layer
from stagenet.rng import seeded_rng
from stagenet.scorenorm import batch_cross_entropy

from gradcheck import check_layer, check_model

N = 10


def conv_layers(model):
    return [(name, layer) for s in model.sets
            for name, layer in s.modules(f"set{s.index}") if isinstance(layer, Conv2d)]


def one_training_step(model, x, labels):
    out, _ = model.forward(x, training=True)
    _, grad = batch_cross_entropy(out, labels)
    model.zero_grads()
    model.backward(grad)
    return out, grad


def mixed_spec():
    """A ``plain_bn`` stem, then a stage that no preset builds: two residual
    units, the first with a stride-1 projection, then a pool."""
    return BackboneSpec((SetSpec("plain_bn", 8), SetSpec("residual", 16, 2, "pool")))


def stage_outputs(model, x):
    """Output shape of every stage in one eval forward, read by a hook."""
    shapes = {}

    def keep(name, layer, direction, out):
        shapes[name] = out.shape

    with model.hooked(keep):
        model.forward(x)
    return [shapes[f"set{s.index}"] for s in model.sets]


class TestStructure:
    def test_vgg16_has_thirteen_convs(self):
        model = build_preset("vgg16", "original", n_classes=N)
        assert len(conv_layers(model)) == 13
        assert model.classifier is not None and model.heads is None

    def test_vgg16_fc_stack_variant(self):
        model = build_preset("vgg16", "original", n_classes=N, hidden=(4096, 4096))
        widths = [(l.in_features, l.out_features)
                  for _, l in model.classifier.children() if l.kind == "linear"]
        assert widths == [(512, 4096), (4096, 4096), (4096, N)]

    def test_resnet18_multi_has_five_matching_heads(self):
        model = build_preset("resnet18", "multi", n_classes=N)
        assert model.classifier is None
        assert len(model.heads) == model.n_sets == 5
        for head in model.heads:
            assert head.conv.out_channels == 512
            assert head.conv.kernel_size == 3
            assert head.fc.in_features == 512 and head.fc.out_features == N

    def test_head_count_equals_set_count_everywhere(self):
        for preset in ("vgg16", "resnet18", "mini_vgg", "mini_resnet", "mini_cnn"):
            model = build_preset(preset, "multi", n_classes=3)
            assert len(model.heads) == model.n_sets

    def test_mini_cnn_is_single_set_single_head(self):
        model = build_preset("mini_cnn", "multi", n_classes=N)
        assert model.n_sets == 1 and len(model.heads) == 1
        out, per_head = model.forward(np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert out.shape == (2, N) and len(per_head) == 1

    def test_unknown_preset_rejected(self):
        with pytest.raises(ContractError):
            build_preset("vgg99")

    def test_every_stage_kind_is_built_by_a_preset(self):
        built = {s.kind for spec in PRESETS.values() for s in spec.sets}
        assert set(get_args(StageKind)) <= built

    def test_concat_merge_is_an_unknown_kind(self):
        with pytest.raises(BuildError, match="unknown stage kind 'concat_merge'"):
            build(BackboneSpec((SetSpec("concat_merge", 16),)))

    @pytest.mark.parametrize("mode", ["original", "multi"])
    def test_unknown_reduction_rejected(self, mode):
        with pytest.raises(BuildError, match="unknown reduction 'bogus'"):
            build(BackboneSpec((SetSpec("plain", 4, 1, "bogus"),)), mode)

    @pytest.mark.parametrize("kind", ["plain", "residual"])
    @pytest.mark.parametrize("field", ["channels", "repeat"])
    def test_stage_of_no_units_or_no_channels_rejected(self, kind, field):
        stage = {"kind": kind, "channels": 4, "repeat": 1, field: 0}
        with pytest.raises(BuildError, match=f"^{field} must be >= 1, got 0$"):
            build(BackboneSpec((SetSpec(**stage),)))

    @pytest.mark.parametrize("call,match", [
        (lambda: build(BackboneSpec((SetSpec("plain", 4),), in_channels=0)),
         "^in_channels must be >= 1, got 0$"),
        (lambda: build_preset("mini_cnn", "original", hidden=(0,)),
         r"^hidden widths must be >= 1, got \(0,\)$"),
    ], ids=["in_channels", "hidden"])
    def test_zero_fan_in_rejected(self, call, match):
        with pytest.raises(BuildError, match=match):
            call()

    @pytest.mark.parametrize("mode", ["original", "multi"])
    @pytest.mark.parametrize("option,match", [({"n_classes": 1}, "at least 2 categories"),
                                              ({"normalizer": "l1"}, "normalizer must be")],
                             ids=["n_classes_1", "normalizer_l1"])
    def test_bad_classifier_option_rejected_in_both_modes(self, mode, option, match):
        with pytest.raises(ContractError, match=match):
            build_preset("mini_cnn", mode, **option)

    def test_hidden_widths_apply_to_original_mode_only(self):
        with pytest.raises(ContractError, match="hidden widths apply to mode 'original' only"):
            build_preset("mini_cnn", "multi", n_classes=4, hidden=(64,))
        model = build_preset("mini_cnn", "original", n_classes=4, hidden=(64,))
        assert [name for name, _ in model.classifier.children()] == ["pool", "fc0", "relu0", "fc1"]
        assert model.classifier.fc0.out_features == 64


@pytest.mark.parametrize("preset,mode", [("mini_resnet", "multi"), ("mini_vgg", "original"),
                                         ("mixed", "multi")])
class TestChildrenAreAttributes:
    """Every layer is reached once through its parent's attributes, under
    its name in ``modules()``: the invariant an attribute walk relies on."""

    def build(self, preset, mode):
        return (build(mixed_spec(), mode, n_classes=4) if preset == "mixed"
                else build_preset(preset, mode, n_classes=4))

    def test_below_the_root_attributes_are_the_children(self, preset, mode):
        for name, node in self.build(preset, mode).modules()[1:]:
            children = node.children()
            attrs = {k: v for k, v in vars(node).items() if isinstance(v, Layer)}
            assert attrs == dict(children) and len(children) == len(attrs), name
            assert not [k for k, v in vars(node).items()
                        if isinstance(v, list) and any(isinstance(i, Layer) for i in v)], name

    def test_root_reaches_each_child_once(self, preset, mode):
        model = self.build(preset, mode)
        reached = []
        for value in vars(model).values():
            reached += [v for v in (value if isinstance(value, list) else [value])
                        if isinstance(v, Layer)]
        assert sorted(map(id, reached)) == sorted(id(c) for _, c in model.children())
        assert len(set(map(id, reached))) == len(reached)


@pytest.mark.parametrize("mode", ["original", "multi"])
class TestNames:
    """Each node carries its ``modules()`` name, and its errors start with it."""

    @pytest.mark.parametrize("preset", ["mini_resnet", "mini_vgg", "mixed"])
    def test_every_node_carries_its_modules_name(self, preset, mode):
        model = (build(mixed_spec(), mode, n_classes=4) if preset == "mixed"
                 else build_preset(preset, mode, n_classes=4))
        assert [(name, node.name) for name, node in model.modules()] == \
            [(name, name) for name, _ in model.modules()]

    def test_second_backward_names_the_node_that_refused(self, mode):
        model = build_preset("mini_resnet", mode, n_classes=4)
        x = seeded_rng(4).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        _, grad = one_training_step(model, x, np.array([1, 2]))
        first = {"multi": "head1.norm", "original": "classifier.fc0"}[mode]
        with pytest.raises(ContractError, match=f"^{first}: backward called without a new forward"):
            model.backward(grad)

    def test_too_small_input_names_the_pool(self, mode):
        model = build_preset("vgg16", mode, n_classes=N)
        with pytest.raises(ShapeError, match=r"^set4\.pool: spatial extents 1x1 below window"):
            model.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))


def test_a_node_outside_a_model_names_its_kind():
    head = ClassifierHead(1, 4, 8, N, "l2", seeded_rng(0))
    assert head.conv.name is None
    for bad in ((2, 3, 5, 5), (2, 4, 5)):
        with pytest.raises(ShapeError, match=r"^conv3x3: expected \(B,4,H,W\)"):
            head(np.zeros(bad, dtype=np.float32))
    model = build_preset("mini_cnn", "original", n_classes=N)
    with pytest.raises(ShapeError, match=r"^set1\.conv0: expected \(B,3,H,W\)"):
        model.sets[0](np.zeros((1, 2, 8, 8), dtype=np.float32))


class TestForward:
    def test_resnet18_stage_shapes_on_cifar_input(self):
        model = build_preset("resnet18", "multi", n_classes=N)
        shapes = stage_outputs(model, np.zeros((1, 3, 32, 32), dtype=np.float32))
        spatial = [s[2] for s in shapes]
        channels = [s[1] for s in shapes]
        assert spatial == [32, 32, 16, 8, 4]
        assert channels == [64, 64, 128, 256, 512]

    def test_eval_forward_is_bitwise_deterministic(self):
        model = build_preset("mini_resnet", "multi", n_classes=4, seed=5)
        x = seeded_rng(1).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        a, _ = model.forward(x, training=False)
        b, _ = model.forward(x, training=False)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("preset,mode", [("mini_resnet", "multi"), ("mini_vgg", "original"),
                                             ("mixed", "multi")])
    def test_eval_forward_keeps_no_cache(self, preset, mode):
        model = (build(mixed_spec(), mode, n_classes=4) if preset == "mixed"
                 else build_preset(preset, mode, n_classes=4))
        x = seeded_rng(1).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        out, _ = model.forward(x, training=True)
        assert any(layer._cache is not None for _, layer in model.modules())
        out, _ = model.forward(x, training=False)
        assert [name for name, layer in model.modules() if layer._cache is not None] == []
        with pytest.raises(ContractError, match="without a new forward"):
            model.backward(np.ones_like(out))

    def test_training_step_is_bitwise_deterministic(self):
        x = seeded_rng(1).uniform(0, 1, (3, 3, 16, 16)).astype(np.float32)
        labels = np.array([0, 3, 1])
        runs = []
        for _ in range(2):
            model = build_preset("mini_resnet", "multi", n_classes=4, seed=5)
            out, _ = one_training_step(model, x, labels)
            runs.append({"output": out, **model.named_grads(), **model.named_buffers()})
        a, b = runs
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_aggregate_equals_manual_head_sum(self):
        model = build_preset("mini_vgg", "multi", n_classes=5).astype(np.float64)
        x = seeded_rng(2).uniform(0, 1, (3, 3, 16, 16))
        agg, per_head = model.forward(x)
        manual = np.zeros_like(agg)
        for c in per_head:
            manual = manual + c
        assert np.max(np.abs(agg - manual)) < 1e-12

    def test_aggregate_entries_bounded_by_head_count(self):
        model = build_preset("mini_resnet", "multi", n_classes=6)
        x = seeded_rng(3).uniform(0, 1, (4, 3, 16, 16)).astype(np.float32)
        agg, _ = model.forward(x)
        assert np.all(agg > 0) and np.all(agg < model.n_sets)

    def test_too_small_input_names_the_offending_set(self):
        # 8x8 pools down 8->4->2->1 through sets 1-3; set 4 cannot pool 1x1
        model = build_preset("vgg16", "original", n_classes=N)
        with pytest.raises(ShapeError, match=r"set4\."):
            model.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_wrong_channel_count_rejected(self):
        model = build_preset("mini_cnn", "original", n_classes=N)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 1, 8, 8), dtype=np.float32))

    def test_shape_oracle_for_all_presets(self):
        # independent symbolic propagation: plain table of reductions
        plans = {
            "vgg16": (32, [16, 8, 4, 2, 1]),
            "resnet18": (32, [32, 32, 16, 8, 4]),
            "mini_vgg": (16, [8, 4, 2]),
            "mini_resnet": (16, [16, 8, 4, 2]),
            "mini_cnn": (16, [8]),
        }
        for preset, (hw, expected) in plans.items():
            model = build_preset(preset, "multi", n_classes=3)
            shapes = stage_outputs(model, np.zeros((1, 3, hw, hw), dtype=np.float32))
            assert [s[2] for s in shapes] == expected, preset
            assert [s[3] for s in shapes] == expected, preset


class TestHook:
    def test_reports_each_call_in_execution_order(self):
        model = build_preset("mini_cnn", "original", n_classes=N)
        x = seeded_rng(4).uniform(0, 1, (2, 3, 8, 8)).astype(np.float32)
        calls = []
        with model.hooked(lambda name, layer, d, out: calls.append((d, name, out))):
            out, _ = one_training_step(model, x, np.array([1, 2]))
        convs = ["set1.conv0", "set1.relu0", "set1.conv1", "set1.relu1"]
        fwd = [*convs, "set1.pool", "set1", "classifier.pool", "classifier.fc0", "classifier"]
        bwd = ["classifier.fc0", "classifier.pool", "classifier",
               "set1.pool", *reversed(convs), "set1"]
        assert [(d, n) for d, n, _ in calls] == [("fwd", n) for n in fwd] + [("bwd", n) for n in bwd]
        assert calls[len(fwd) - 1][2] is out
        assert calls[-1][2].shape == x.shape

    def test_a_subtree_reports_the_names_its_errors_carry(self):
        model = build_preset("mini_cnn", "multi", n_classes=N)
        head = model.heads[0]
        x = seeded_rng(5).uniform(0, 1, (2, head.conv.in_channels, 8, 8)).astype(np.float32)
        names = []
        with head.hooked(lambda name, layer, d, out: names.append(name)):
            head(x)
        assert names == ["head1.conv", "head1.pool", "head1.bn", "head1.fc", "head1.act",
                         "head1.norm", "head1"]
        with pytest.raises(ShapeError, match="head1.conv:"):
            head(np.zeros((2, 3, 8, 8), dtype=np.float32))
        standalone = ClassifierHead(1, head.conv.in_channels, 4, N, "l2", seeded_rng(6))
        names.clear()
        with standalone.hooked(lambda name, layer, d, out: names.append(name)):
            standalone(x)
        assert names == ["conv", "pool", "bn", "fc", "act", "norm", ""]

    @pytest.mark.parametrize("preset", ["mini_resnet", "mini_vgg", "mixed"])
    def test_every_node_reports_once_each_way(self, preset):
        model = (build(mixed_spec(), "multi", n_classes=4) if preset == "mixed"
                 else build_preset(preset, "multi", n_classes=4))
        x = seeded_rng(4).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        calls = []
        with model.hooked(lambda name, layer, d, out: calls.append((d, name, layer))):
            one_training_step(model, x, np.array([1, 2]))
        nodes = [(name, layer) for name, layer in model.modules() if name]
        # a head's pool hands its argmax to the conv and runs no backward
        ran = {"fwd": nodes, "bwd": [(n, l) for n, l in nodes
                                     if not (n.startswith("head") and n.endswith(".pool"))]}
        for d in ("fwd", "bwd"):
            assert sorted((n, id(l)) for dd, n, l in calls if dd == d) == \
                sorted((n, id(l)) for n, l in ran[d]), d

    def test_unset_on_exit_and_not_nested(self):
        model = build_preset("mini_cnn", "multi", n_classes=N)
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)

        def fail(name, layer, direction, out):
            raise RuntimeError(name)

        with pytest.raises(RuntimeError, match="set1.conv0"):
            with model.hooked(fail):
                model.forward(x)
        calls = []
        with model.hooked(lambda *args: calls.append(args)):
            with pytest.raises(ContractError, match="hook"):
                with model.heads[0].hooked(fail):
                    pass
        model.forward(x)
        assert calls == []

    @pytest.mark.parametrize("mode", ["original", "multi"])
    def test_second_backward_without_forward_rejected(self, mode):
        model = build_preset("mini_resnet", mode, n_classes=4)
        x = seeded_rng(4).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        _, grad = one_training_step(model, x, np.array([1, 2]))
        grads = {k: v.copy() for k, v in model.named_grads().items()}
        with pytest.raises(ContractError):
            model.backward(grad)
        for k, v in model.named_grads().items():
            assert np.array_equal(v, grads[k]), k

    @pytest.mark.parametrize("preset,mode", [("mini_resnet", "multi"), ("mini_vgg", "original")])
    def test_a_training_step_writes_into_no_activation(self, preset, mode):
        # layers cache their inputs and outputs by reference, so activations
        # are read-only: with the input and every forward output frozen, an
        # in-place write raises, and the step is an unfrozen step bit for bit
        x = seeded_rng(50).uniform(0, 1, (13, 3, 16, 16)).astype(np.float32)
        labels = seeded_rng(51).integers(0, N, 13)

        def freeze(name, layer, direction, out):
            if direction == "fwd":
                out.flags.writeable = False

        def step(x, hook):
            model = build_preset(preset, mode, n_classes=N, seed=6)
            with model.hooked(hook):
                out, _ = model.forward(x, training=True)
                loss, grad = batch_cross_entropy(out, labels)
                model.zero_grads()
                dx = model.backward(grad)
            return {"loss": np.float64(loss), "dx": dx, **model.named_grads(), **model.named_buffers()}

        frozen_x = x.copy()
        frozen_x.flags.writeable = False
        plain, frozen = step(x, lambda *args: None), step(frozen_x, freeze)
        assert plain.keys() == frozen.keys()
        for k in plain:
            assert plain[k].tobytes() == frozen[k].tobytes(), k


def vgg16_conv_params():
    """Hand count of the thirteen biased VGG16 convs."""
    plan = [(3, 64), (64, 64), (64, 128), (128, 128), (128, 256), (256, 256),
            (256, 256), (256, 512), (512, 512), (512, 512), (512, 512),
            (512, 512), (512, 512)]
    return sum(cin * cout * 9 + cout for cin, cout in plan)


def resnet18_backbone_params():
    """Hand count: stem + four residual stages (convs + batchnorms)."""
    def unit(cin, ch, proj):
        p = cin * ch * 9 + 2 * ch + ch * ch * 9 + 2 * ch
        if proj:
            p += cin * ch + 2 * ch
        return p

    total = 3 * 64 * 9 + 2 * 64                     # stem conv + bn
    total += unit(64, 64, False) + unit(64, 64, False)
    total += unit(64, 128, True) + unit(128, 128, False)
    total += unit(128, 256, True) + unit(256, 256, False)
    total += unit(256, 512, True) + unit(512, 512, False)
    return total


def multi_head_params(tap_channels, target, n):
    p = sum(9 * target * c for c in tap_channels)   # head convs, bias-free
    p += len(tap_channels) * 2 * target             # head batchnorms
    p += len(tap_channels) * (target * n + n)       # head linears
    return p


class TestComplexityAccounting:
    def test_single_conv_flop_formula(self):
        # one 3x3 conv, 1->1 channels, 4x4 input, pad 1: 9 * 16 = 144 MACs
        spec = BackboneSpec((SetSpec("plain", 1),), in_channels=1)
        model = build(spec, "original", n_classes=2)
        stats = model.count_stats((1, 1, 4, 4))
        set_flops = stats.per_set[0][2]
        assert set_flops == 144 + 16  # conv MACs + relu elementwise

    def test_vgg16_original_matches_hand_count(self):
        model = build_preset("vgg16", "original", n_classes=N)
        stats = model.count_stats((1, 3, 32, 32))
        expected = vgg16_conv_params() + (512 * N + N)
        assert stats.params == expected == 14_719_818

    def test_vgg16_multi_matches_hand_count(self):
        model = build_preset("vgg16", "multi", n_classes=N)
        stats = model.count_stats((1, 3, 32, 32))
        expected = vgg16_conv_params() + multi_head_params(
            [64, 128, 256, 512, 512], 512, N)
        assert stats.params == expected == 21_528_434

    def test_resnet18_original_matches_hand_count(self):
        model = build_preset("resnet18", "original", n_classes=N)
        stats = model.count_stats((1, 3, 32, 32))
        expected = resnet18_backbone_params() + (512 * N + N)
        assert stats.params == expected == 11_173_962

    def test_resnet18_multi_matches_hand_count(self):
        model = build_preset("resnet18", "multi", n_classes=N)
        stats = model.count_stats((1, 3, 32, 32))
        expected = resnet18_backbone_params() + multi_head_params(
            [64, 64, 128, 256, 512], 512, N)
        assert stats.params == expected == 15_918_194

    def test_vgg16_fc_stack_variant_count(self):
        model = build_preset("vgg16", "original", n_classes=N, hidden=(4096, 4096))
        stats = model.count_stats((1, 3, 32, 32))
        fc = 512 * 4096 + 4096 + 4096 * 4096 + 4096 + 4096 * N + N
        assert stats.params == vgg16_conv_params() + fc

    def test_stats_equal_trainable_scalar_totals(self):
        for preset in ("mini_cnn", "mini_vgg", "mini_resnet"):
            for mode in ("original", "multi"):
                model = build_preset(preset, mode, n_classes=7)
                stats = model.count_stats((1, 3, 16, 16))
                actual = sum(p.size for p in model.named_params().values())
                assert stats.params == actual, (preset, mode)

    def test_per_set_breakdown_sums_to_total(self):
        model = build_preset("resnet18", "multi", n_classes=N)
        stats = model.count_stats((2, 3, 32, 32))
        assert sum(row[1] for row in stats.per_set) == stats.params
        assert sum(row[2] for row in stats.per_set) == stats.flops

    def test_parameter_ratios_match_frozen_values(self):
        orig = build_preset("resnet18", "original", n_classes=N).count_stats((1, 3, 32, 32))
        multi = build_preset("resnet18", "multi", n_classes=N).count_stats((1, 3, 32, 32))
        assert multi.params / orig.params == pytest.approx(15_918_194 / 11_173_962)
        vorig = build_preset("vgg16", "original", n_classes=N).count_stats((1, 3, 32, 32))
        vmulti = build_preset("vgg16", "multi", n_classes=N).count_stats((1, 3, 32, 32))
        assert vmulti.params / vorig.params == pytest.approx(21_528_434 / 14_719_818)

    def test_flop_ratios_match_frozen_values(self):
        """Frozen from the MAC convention; the ResNet ratio genuinely
        exceeds 2 because two heads convolve at full 32x32 resolution."""
        orig = build_preset("resnet18", "original", n_classes=N).count_stats((1, 3, 32, 32))
        multi = build_preset("resnet18", "multi", n_classes=N).count_stats((1, 3, 32, 32))
        assert orig.flops == pytest.approx(555.4e6, rel=0.01)
        assert multi.flops / orig.flops == pytest.approx(2.56, abs=0.02)
        vorig = build_preset("vgg16", "original", n_classes=N).count_stats((1, 3, 32, 32))
        vmulti = build_preset("vgg16", "multi", n_classes=N).count_stats((1, 3, 32, 32))
        assert vorig.flops == pytest.approx(313.2e6, rel=0.01)
        assert vmulti.flops / vorig.flops == pytest.approx(1.46, abs=0.02)

    def test_double_convention_doubles_mac_terms(self):
        model = build_preset("mini_cnn", "original", n_classes=3)
        s1 = model.count_stats((1, 3, 16, 16), flop_mode=1)
        s2 = model.count_stats((1, 3, 16, 16), flop_mode=2)
        assert s2.flops > s1.flops
        assert s2.params == s1.params


class TestCostRule:
    """One cost rule per layer kind, summed over a traced batch-1 forward."""

    def test_benchmark_models_pinned_exactly(self):
        shape = (100, 3, 32, 32)
        model = build_preset("mini_resnet", "multi", n_classes=N)
        s1, s2 = model.count_stats(shape, 1), model.count_stats(shape, 2)
        assert s1.params == 65_008
        assert (s1.flops, s2.flops) == (669_499_200, 1_333_998_400)
        assert [row[2] for row in s1.per_set] == [259_726_800, 211_803_600,
                                                  151_797_200, 46_171_600]
        model = build_preset("mini_vgg", "original", n_classes=N)
        s1, s2 = model.count_stats(shape, 1), model.count_stats(shape, 2)
        assert s1.params == 17_930
        assert (s1.flops, s2.flops) == (201_507_200, 400_604_800)
        assert [row[2] for row in s1.per_set] == [23_142_400, 89_395_200, 88_934_400]
        assert s1.classifier_flops == 35_200

    def test_hidden_relus_count_at_their_own_width(self):
        # pool 512 + linears 512*4096 + 4096*4096 + 4096*10 + relus 4096 + 4096
        model = build_preset("vgg16", "original", n_classes=N, hidden=(4096, 4096))
        stats = model.count_stats((1, 3, 32, 32))
        assert stats.classifier_flops == 18_924_032

    def test_count_stats_leaves_no_state_behind(self):
        model = build_preset("mini_resnet", "multi", n_classes=N)
        x = seeded_rng(5).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        out, _ = model.forward(x, training=True)
        buffers = {k: v.copy() for k, v in model.named_buffers().items()}
        model.count_stats((2, 3, 16, 16))
        for k, v in model.named_buffers().items():
            assert np.array_equal(v, buffers[k]), k
        with pytest.raises(ContractError):
            model.backward(np.ones_like(out))

    @pytest.mark.parametrize("mode", ["original", "multi"])
    def test_counts_a_model_whose_weights_went_non_finite(self, mode):
        model = build_preset("mini_cnn", mode, n_classes=N)
        expected = model.count_stats((2, 3, 16, 16))
        conv_layers(model)[0][1].params["weight"][0, 0, 0, 0] = np.nan
        state = {**model.named_params(), **model.named_buffers()}
        before = {k: v.tobytes() for k, v in state.items()}
        assert model.count_stats((2, 3, 16, 16)) == expected
        for k, v in state.items():
            assert v.tobytes() == before[k], k


class TestCheckModel:
    def test_passes_and_restores_buffers(self):
        spec = BackboneSpec((SetSpec("plain_bn", 2, 1, "pool"),), in_channels=1)
        model = build(spec, "multi", n_classes=2).astype(np.float64)
        assert sum(p.size for p in model.named_params().values()) == 68
        before = {k: v.copy() for k, v in model.named_buffers().items()}
        results = check_model(model, seeded_rng(6).uniform(-1, 1, (3, 1, 6, 6)))
        assert results and all(r.passed for r in results), [r.line() for r in results]
        assert [r.name for r in results].count("input") == 1
        after = model.named_buffers()
        assert before.keys() == after.keys()
        for k, v in before.items():
            assert v.tobytes() == after[k].tobytes(), k


class TestOriginalClassifier:
    def test_gradients_match_finite_differences(self):
        clf = OriginalClassifier(5, 3, hidden=(7,), rng=seeded_rng(8)).astype(np.float64)
        x = seeded_rng(9).uniform(-2, 2, (3, 5, 3, 4))
        results = check_layer(clf, x)
        assert [r.name for r in results] == [
            "composite.input", "composite.fc0.weight", "composite.fc0.bias",
            "composite.fc1.weight", "composite.fc1.bias"]
        for res in results:
            assert res.passed, res.line()


def layer_classes(cls=Layer):
    """Every subclass of ``cls``, however deep."""
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *layer_classes(sub)]
    return out


class TestPrecision:
    """Every layer is built in float32, and ``astype`` is the one way to cast."""

    def test_no_layer_or_builder_takes_dtype(self):
        classes = layer_classes()
        assert {"Conv2d", "ClassifierHead", "SetModule", "Model"} <= {c.__name__ for c in classes}
        for fn in [c.__init__ for c in classes] + [build, build_preset]:
            assert "dtype" not in inspect.signature(fn).parameters, fn.__qualname__

    def test_float64_and_back_restores_every_byte(self):
        model = build_preset("mini_resnet", "multi", n_classes=N)
        # one step moves the running stats off 0 and 1
        one_training_step(model, seeded_rng(2).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32),
                          np.array([1, 3]))

        def state():
            return {**model.named_params(), **model.named_buffers()}

        before = state()
        assert model.astype(np.float64) is model
        assert {v.dtype for v in state().values()} == {np.dtype(np.float64)}
        grads = model.named_grads().values()
        assert all(g.dtype == np.float64 and not g.any() for g in grads)
        model.astype(np.float32)
        after = state()
        assert after.keys() == before.keys()
        for k, v in before.items():
            assert after[k].dtype == np.float32 and after[k].tobytes() == v.tobytes(), k

    @pytest.mark.parametrize("mode", ["original", "multi"])
    def test_input_of_another_dtype_rejected(self, mode):
        model = build_preset("mini_cnn", mode, n_classes=N)
        x = np.zeros((2, 3, 8, 8))
        with pytest.raises(ContractError, match="input dtype float64 != model param dtype float32"):
            model.forward(x)
        model.astype(np.float64)
        with pytest.raises(ContractError, match="input dtype float32 != model param dtype float64"):
            model.forward(x.astype(np.float32))
        assert model.forward(x)[0].dtype == np.float64

    @pytest.mark.parametrize("mode", ["original", "multi"])
    def test_float64_model_counts_as_float32(self, mode):
        model = build_preset("mini_resnet", mode, n_classes=N)
        expected = model.count_stats((2, 3, 16, 16))
        assert model.astype(np.float64).count_stats((2, 3, 16, 16)) == expected

    @pytest.mark.parametrize("preset,mode,crc", [("mini_resnet", "multi", 0xB8FCDF87),
                                                 ("mini_vgg", "original", 0x3BC3BF0F)])
    def test_initial_weights_are_pinned(self, preset, mode, crc):
        # CRC32 over every param's name and bytes, in order; the Philox
        # draws behind them do not depend on the BLAS or the host
        got = 0
        for name, p in build_preset(preset, mode, n_classes=N, seed=0).named_params().items():
            got = zlib.crc32(p.tobytes(), zlib.crc32(name.encode(), got))
        assert got == crc

    @pytest.mark.parametrize("preset,mode,crc", [("mini_resnet", "multi", 0x93BCF0A7),
                                                 ("mini_vgg", "original", 0xE2E1485C)])
    def test_initial_weight_bytes_are_pinned(self, preset, mode, crc):
        # CRC32 over every param's bytes alone, in order: a change of names
        # leaves it, a change of any draw or of the build order does not
        got = 0
        for p in build_preset(preset, mode, n_classes=N, seed=0).named_params().values():
            got = zlib.crc32(p.tobytes(), got)
        assert got == crc
