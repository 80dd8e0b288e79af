"""Classifier heads: score contracts, aggregation, prediction."""

import numpy as np
import pytest

from stagenet import aggregate_scores, predict
from stagenet.errors import ContractError, ShapeError
from stagenet.heads import ClassifierHead
from stagenet.rng import seeded_rng
from stagenet.scorenorm import softmax

from gradcheck import check_layer


def make_head(normalizer="l2", dtype=np.float64, n_classes=4, in_ch=3, target=6):
    return ClassifierHead(1, in_ch, target, n_classes, normalizer=normalizer,
                          rng=seeded_rng(42)).astype(dtype)


class TestHeadForward:
    def test_l2_scores_have_unit_square_sum(self):
        head = make_head("l2")
        x = seeded_rng(1).uniform(-1, 1, (5, 3, 8, 8))
        out = head.forward(x)
        np.testing.assert_allclose(np.sum(out * out, axis=1), 1.0, atol=1e-5)

    def test_softmax_scores_sum_to_one(self):
        head = make_head("softmax")
        x = seeded_rng(2).uniform(-1, 1, (5, 3, 8, 8))
        np.testing.assert_allclose(head.forward(x).sum(axis=1), 1.0, atol=1e-6)

    def test_l2_entries_strictly_inside_unit_interval(self):
        head = make_head("l2")
        out = head.forward(seeded_rng(3).uniform(-2, 2, (6, 3, 5, 5)))
        assert np.all(out > 0) and np.all(out < 1)

    def test_output_shape_independent_of_spatial_size(self):
        head = make_head()
        for h, w in [(4, 4), (32, 32), (7, 13)]:
            out = head.forward(seeded_rng(4).uniform(-1, 1, (2, 3, h, w)))
            assert out.shape == (2, 4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            make_head().forward(np.zeros((1, 5, 4, 4)))

    def test_normalizer_swap_preserves_per_head_argmax(self):
        # same parameters, different normalizer: values differ, argmax cannot
        h_l2 = make_head("l2")
        h_sm = make_head("softmax")
        for k, v in h_l2.named_params().items():
            h_sm.named_params()[k][...] = v
        x = seeded_rng(5).uniform(-2, 2, (16, 3, 6, 6))
        a = h_l2.forward(x)
        b = h_sm.forward(x)
        assert not np.allclose(a, b)
        assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))

    def test_unknown_normalizer_rejected(self):
        with pytest.raises(ContractError):
            make_head("l1")


class TestHeadBackward:
    @pytest.mark.parametrize("normalizer", ["l2", "softmax"])
    def test_full_head_gradient_matches_finite_differences(self, normalizer):
        head = make_head(normalizer)
        x = seeded_rng(6).uniform(-1, 1, (3, 3, 4, 4))
        weights = seeded_rng(7).uniform(-1, 1, (3, 4))
        results = check_layer(head, x, eps=1e-5, tol=1e-4, loss_weights=weights)
        assert len(results) == 1 + len(head.named_params())
        for res in results:
            assert res.passed, res.line()

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ContractError):
            make_head().backward(np.zeros((1, 4)))

    def test_backward_takes_the_pool_cache_without_a_pool_backward(self):
        head = make_head()
        head(seeded_rng(7).uniform(-1, 1, (2, 3, 5, 5)))
        calls = []
        with head.hooked(lambda name, layer, d, out: calls.append((d, name))):
            head.backprop(np.ones((2, 4)))
        assert ("bwd", "pool") not in calls and ("bwd", "conv") in calls
        assert [name for name, layer in head.modules() if layer._cache is not None] == []
        with pytest.raises(ContractError, match="adaptive_maxpool: backward called without"):
            head.pool.take_argmax(np.ones((2, 6, 1, 1)))


def argmax_and_dense_backward(head, x, weights):
    """The head's backward, then the dense ``conv.backward(pool.backward(g))``
    replayed on the same forward caches; g is what the head's bn returned.
    Returns (dx, conv weight grad) of each."""
    head.forward(x)
    caches = head.conv._cache, head.pool._cache
    seen = {}
    with head.hooked(lambda name, layer, d, out: seen.setdefault((name, d), out)):
        head.zero_grads()
        dx = head.backward(weights)
    dw = head.conv.grads["weight"].copy()
    head.conv._cache, head.pool._cache = caches
    head.zero_grads()
    dense_dx = head.conv.backward(head.pool.backward(seen["bn", "bwd"]))
    return (dx, dw), (dense_dx, head.conv.grads["weight"])


class TestArgmaxBackward:
    """The head's conv backprops only at the pool's argmax; it must agree
    with the dense conv backward of the pool's dense dx."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("normalizer", ["l2", "softmax"])
    @pytest.mark.parametrize("case", ["random", "constant", "1x1"])
    def test_matches_dense_conv_backward(self, case, normalizer, dtype, tol):
        head = make_head(normalizer, dtype=dtype, in_ch=5, target=7)
        if case == "random":
            x = seeded_rng(12).uniform(-1, 1, (4, 5, 6, 7))
        elif case == "constant":
            x = np.full((3, 5, 6, 6), 0.5)
        else:
            x = seeded_rng(13).uniform(-1, 1, (2, 5, 1, 1))
        x = x.astype(dtype)
        if case == "constant":
            # interior outputs are equal, so ties at the max are routed to the lowest index
            y = head.conv.forward(x)
            assert ((y == y.max(axis=(2, 3), keepdims=True)).sum(axis=(2, 3)) > 1).any()
        weights = seeded_rng(14).uniform(-1, 1, (x.shape[0], 4)).astype(dtype)
        new, dense = argmax_and_dense_backward(head, x, weights)
        for a, b in zip(new, dense):
            assert a.dtype == b.dtype == dtype
            assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


class TestAggregation:
    def test_single_head_aggregate_is_identity(self):
        c = seeded_rng(8).uniform(0, 1, (3, 4))
        np.testing.assert_array_equal(aggregate_scores([c]), c)

    def test_two_head_sum(self):
        a = np.array([[0.6, 0.8]])
        b = np.array([[0.8, 0.6]])
        np.testing.assert_allclose(aggregate_scores([a, b]), [[1.4, 1.4]], atol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            aggregate_scores([])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_scores([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_gradient_distributes_identically(self):
        # d(sum)/d(head_k) is the identity, so each head sees the same grad
        heads = [make_head(), make_head()]
        x = seeded_rng(9).uniform(-1, 1, (2, 3, 4, 4))
        outs = [h.forward(x) for h in heads]
        aggregate_scores(outs)
        g = seeded_rng(10).uniform(-1, 1, (2, 4))
        grads = [h.backward(g) for h in heads]
        assert grads[0].shape == grads[1].shape == x.shape


class TestPredict:
    def test_tie_takes_lowest_index(self):
        assert predict(np.array([[1.4, 1.4, 0.2]]))[0] == 0

    def test_plain_argmax(self):
        assert predict(np.array([[0.1, 2.0, 0.5]]))[0] == 1

    def test_softmax_of_scores_never_changes_prediction(self):
        x = np.random.default_rng(11).uniform(-5, 5, size=(1000, 6))
        np.testing.assert_array_equal(predict(x), predict(softmax(x)))
