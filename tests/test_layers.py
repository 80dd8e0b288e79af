"""Layer forward values and analytic-vs-numerical gradient agreement."""

import tracemalloc

import numpy as np
import pytest

from stagenet import layers as L
from stagenet.errors import ContractError, ShapeError
from stagenet.heads import ScoreNorm
from stagenet.rng import seeded_rng

from gradcheck import _layer_zoo, check_all_layers, check_layer, numerical_gradient, relative_error


def naive_conv(x, w, stride, pad):
    """Direct six-loop cross-correlation used as the convolution oracle."""
    b, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((b, cout, ho, wo))
    for n in range(b):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[n, c, i * stride + ki, j * stride + kj] * w[o, c, ki, kj]
                    out[n, o, i, j] = acc
    return out


class TestConvForward:
    def test_identity_kernel_reproduces_input(self):
        rng = seeded_rng(1)
        x = rng.uniform(-1, 1, (2, 3, 5, 5))
        conv = L.Conv2d(3, 3, 3, stride=1, pad=1, bias=False).astype(np.float64)
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        conv.params["weight"] = w
        np.testing.assert_allclose(conv.forward(x), x, atol=1e-15)

    def test_all_ones_kernel_sums_window(self):
        conv = L.Conv2d(1, 1, 3, stride=1, pad=0, bias=False).astype(np.float64)
        conv.params["weight"] = np.ones((1, 1, 3, 3))
        out = conv.forward(np.ones((1, 1, 3, 3)))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = seeded_rng(2)
        x = rng.uniform(-2, 2, (2, 3, 5, 5))
        conv = L.Conv2d(3, 4, 3, stride=stride, pad=pad, bias=False,
                        rng=seeded_rng(3)).astype(np.float64)
        expected = naive_conv(x, conv.params["weight"], stride, pad)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-10)

    def test_1x1_matches_naive_oracle(self):
        rng = seeded_rng(4)
        x = rng.uniform(-2, 2, (2, 3, 4, 4))
        conv = L.Conv2d(3, 2, 1, stride=2, pad=0, bias=False,
                        rng=seeded_rng(5)).astype(np.float64)
        expected = naive_conv(x, conv.params["weight"], 2, 0)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        conv = L.Conv2d(3, 4, 3, pad=1)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 4, 4), dtype=np.float32))

    def test_pad1_stride1_preserves_extents(self):
        conv = L.Conv2d(2, 5, 3, stride=1, pad=1).astype(np.float64)
        for h, w in [(1, 1), (3, 7), (8, 8)]:
            out = conv.forward(np.zeros((1, 2, h, w)))
            assert out.shape == (1, 5, h, w)


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        conv = L.Conv2d(2, 3, 3, pad=1, rng=seeded_rng(6)).astype(np.float64)
        x = seeded_rng(7).uniform(-1, 1, (2, 2, 4, 4))
        conv.forward(x)
        dx = conv.backward(np.zeros((2, 3, 4, 4)))
        assert not dx.any()
        assert not conv.grads["weight"].any()

    def test_identity_kernel_passes_grad_through(self):
        conv = L.Conv2d(1, 1, 3, stride=1, pad=1, bias=False).astype(np.float64)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        conv.params["weight"] = w
        conv.forward(seeded_rng(8).uniform(-1, 1, (1, 1, 4, 4)))
        g = seeded_rng(9).uniform(-1, 1, (1, 1, 4, 4))
        np.testing.assert_allclose(conv.backward(g), g, atol=1e-15)

    def test_backward_before_forward_rejected(self):
        conv = L.Conv2d(1, 1, 3, pad=1)
        with pytest.raises(ContractError):
            conv.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))

    def test_gradients_match_finite_differences(self):
        conv = L.Conv2d(2, 3, 3, stride=1, pad=1, bias=True,
                        rng=seeded_rng(10)).astype(np.float64)
        x = seeded_rng(11).uniform(-1, 1, (2, 2, 5, 5))
        for res in check_layer(conv, x, eps=1e-5, tol=1e-6):
            assert res.passed, res.line()

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_gradients_match_finite_differences_over_grid(self, k, stride, pad, bias):
        # odd, non-square input: at stride 2 the windows stop short of the
        # padded extent on some axes, so the col2im slices must too
        conv = L.Conv2d(3, 4, k, stride=stride, pad=pad, bias=bias,
                        rng=seeded_rng(12)).astype(np.float64)
        x = seeded_rng(13).uniform(-1, 1, (2, 3, 7, 6))
        results = check_layer(conv, x, eps=1e-5, tol=1e-6)
        assert [r.name for r in results] == [f"{conv.kind}.{key}" for key in ("input", *conv.params)]
        for res in results:
            assert res.passed, res.line()

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_backward_at_equals_dense_backward_of_its_sparse_grad(self, k, stride, pad, bias):
        conv = L.Conv2d(3, 4, k, stride=stride, pad=pad, bias=bias,
                        rng=seeded_rng(12)).astype(np.float64)
        x = seeded_rng(13).uniform(-1, 1, (2, 3, 7, 6))
        y = conv.forward(x)
        cache = conv._cache
        pos = seeded_rng(14).integers(0, y.shape[2] * y.shape[3], (2, 4))
        g = seeded_rng(15).uniform(-1, 1, (2, 4))
        dx = conv.backward_at(pos, g)
        sparse = {key: v.copy() for key, v in conv.grads.items()}
        dense_g = np.zeros((2, 4, y.shape[2] * y.shape[3]))
        np.put_along_axis(dense_g, pos[..., None], g[..., None], axis=-1)
        conv._cache = cache
        conv.zero_grads()
        np.testing.assert_allclose(dx, conv.backward(dense_g.reshape(y.shape)), rtol=0, atol=1e-14)
        for key, v in conv.grads.items():
            np.testing.assert_allclose(sparse[key], v, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("pos_shape,g_shape", [((1, 4), (2, 4)), ((2, 4), (2, 1)),
                                                   ((2, 4, 1), (2, 4, 1))])
    def test_backward_at_rejects_pos_or_g_of_another_shape(self, pos_shape, g_shape):
        conv = L.Conv2d(3, 4, 3, pad=1)
        conv.forward(np.zeros((2, 3, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match=r"^conv3x3: pos and g must be \(2, 4\)"):
            conv.backward_at(np.zeros(pos_shape, dtype=np.int64), np.ones(g_shape, dtype=np.float32))


def direct_conv_grads(x, w, g, stride, pad):
    """dx, dW and dbias of a cross-correlation, by scattering each output
    position's gradient over its window, tap by tap (the backward of
    ``naive_conv``, looped over positions rather than samples)."""
    k = w.shape[2]
    _, _, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            for ki in range(k):
                for kj in range(k):
                    r, c = i * stride + ki, j * stride + kj
                    dw[:, :, ki, kj] += g[:, :, i, j].T @ xp[:, :, r, c]
                    dxp[:, :, r, c] += g[:, :, i, j] @ w[:, :, ki, kj]
    return dxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]], dw, g.sum(axis=(0, 2, 3))


def direct_conv(x, w, stride, pad):
    """``naive_conv`` looped over output positions and taps, so that it runs
    at batch sizes of thousands."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (x.shape[2] + 2 * pad - k) // stride + 1
    wo = (x.shape[3] + 2 * pad - k) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], ho, wo))
    for i in range(ho):
        for j in range(wo):
            for ki in range(k):
                for kj in range(k):
                    out[:, :, i, j] += xp[:, :, i * stride + ki, j * stride + kj] @ w[:, :, ki, kj].T
    return out


def test_direct_conv_oracles_agree_with_the_six_loop_one():
    # the conv is linear in x and in w, so for any directions u, v the
    # backward oracle must give <g, conv(u, w)> = <dx, u> and
    # <g, conv(x, v)> = <dW, v>
    rng = seeded_rng(30)
    x, w = rng.uniform(-1, 1, (2, 3, 5, 4)), rng.uniform(-1, 1, (4, 3, 3, 3))
    u, v = rng.uniform(-1, 1, x.shape), rng.uniform(-1, 1, w.shape)
    np.testing.assert_allclose(direct_conv(x, w, 2, 1), naive_conv(x, w, 2, 1), atol=1e-12)
    g = rng.uniform(-1, 1, naive_conv(x, w, 2, 1).shape)
    dx, dw, _ = direct_conv_grads(x, w, g, 2, 1)
    assert abs((g * naive_conv(u, w, 2, 1)).sum() - (dx * u).sum()) < 1e-12
    assert abs((g * naive_conv(x, v, 2, 1)).sum() - (dw * v).sum()) < 1e-12


def conv_block_grid():
    """(k, stride, pad, (h, w)) for every input the conv accepts."""
    return [pytest.param(k, s, p, hw, id=f"k{k}-s{s}-p{p}-{hw[0]}x{hw[1]}")
            for k in (1, 3) for s in (1, 2) for p in (0, 1)
            for hw in ((7, 6), (8, 8), (1, 1)) if min(hw) + 2 * p >= k]


class TestConvBlocks:
    """The batch runs in sample blocks over a stride-phase layout (see
    ``Conv2d``); batch sizes 1, b and b+1 (b the block size) give one full
    block, one partial block, and a full block followed by a partial one."""

    @pytest.mark.parametrize("k,stride,pad,hw", conv_block_grid())
    def test_matches_direct_oracle_at_block_boundaries(self, k, stride, pad, hw):
        conv = L.Conv2d(3, 4, k, stride=stride, pad=pad, bias=True,
                        rng=seeded_rng(31)).astype(np.float64)
        conv.params["bias"][:] = seeded_rng(32).uniform(-1, 1, 4)
        w = conv.params["weight"]
        b = conv.block_size((1, 3, *hw), 8)
        for batch in (1, b, b + 1):
            x = seeded_rng(33).uniform(-1, 1, (batch, 3, *hw))
            conv.zero_grads()
            y = conv.forward(x)
            np.testing.assert_allclose(y, direct_conv(x, w, stride, pad) + conv.params["bias"][:, None, None],
                                       rtol=0, atol=1e-12)
            g = seeded_rng(34).uniform(-1, 1, y.shape)
            dx = conv.backward(g)
            want_dx, want_dw, want_db = direct_conv_grads(x, w, g, stride, pad)
            np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(conv.grads["weight"], want_dw, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(conv.grads["bias"], want_db, rtol=1e-12, atol=1e-12)
            # the sparse backward indexes the same blocked cache
            pos = seeded_rng(35).integers(0, y.shape[2] * y.shape[3], y.shape[:2])
            g_at = seeded_rng(36).uniform(-1, 1, y.shape[:2])
            sparse = np.zeros((*y.shape[:2], y.shape[2] * y.shape[3]))
            np.put_along_axis(sparse, pos[..., None], g_at[..., None], axis=-1)
            conv.zero_grads()
            conv.forward(x)
            dx = conv.backward_at(pos, g_at)
            want_dx, want_dw, _ = direct_conv_grads(x, w, sparse.reshape(y.shape), stride, pad)
            np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(conv.grads["weight"], want_dw, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (1, 2)])
    def test_each_sample_depends_on_itself_alone(self, k, stride):
        # float32, bit for bit: the output and dx of a sample are the same
        # whichever block, and whichever place in it, the sample falls in
        conv = L.Conv2d(8, 16, k, stride=stride, pad=k // 2, rng=seeded_rng(37))
        conv.params["bias"][:] = 0.25
        b = conv.block_size((1, 8, 16, 16), 4)
        assert b >= 2
        x = seeded_rng(38).uniform(-1, 1, (2 * b + 1, 8, 16, 16)).astype(np.float32)
        y = conv.forward(x)
        g = seeded_rng(39).uniform(-1, 1, y.shape).astype(np.float32)
        dx = conv.backward(g)
        for part in (slice(0, 1), slice(1, b + 2), slice(b + 2, None), slice(b - 1, b + 1)):
            y_part = conv.forward(x[part])
            assert y_part.tobytes() == y[part].tobytes()
            assert conv.backward(g[part]).tobytes() == dx[part].tobytes()

    def test_float32_working_set_is_blocked(self):
        # beyond what it caches and returns, a conv holds about two blocks
        # of im2col matrices; a full-batch im2col here is 29.5 MB
        conv = L.Conv2d(8, 32, 3, stride=1, pad=1, rng=seeded_rng(40))
        x = seeded_rng(41).uniform(-1, 1, (100, 8, 32, 32)).astype(np.float32)
        g = np.ones((100, 32, 32, 32), dtype=np.float32)
        conv.forward(x[:2])
        conv.backward(g[:2])
        tracemalloc.start()
        try:
            y = conv.forward(x)
            cache = conv._cache[0].nbytes
            dx = conv.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cache + y.nbytes + dx.nbytes + 4 * 2 ** 20

    def test_a_training_forward_holds_no_copy_of_its_input(self):
        # the cache is the input itself, and the stride phases live in a
        # scratch of one block; a cache of the padded phases here is 3.7 MB
        conv = L.Conv2d(8, 32, 3, stride=1, pad=1, rng=seeded_rng(40))
        x = seeded_rng(41).uniform(-1, 1, (100, 8, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            y = conv.forward(x)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= y.nbytes + 2 * L.BLOCK_BYTES

    @pytest.mark.parametrize("k,stride,pad", [(k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)])
    def test_a_call_on_non_finite_input_leaves_nothing_behind(self, k, stride, pad):
        # forward, backward and backward_at on inf and NaN, in a partial
        # last block and in one full block, then on a finite input: outputs,
        # dx and grads are a fresh layer's, bit for bit
        def fresh():
            return L.Conv2d(4, 5, k, stride=stride, pad=pad, rng=seeded_rng(42))

        def run(conv, x):
            y = conv.forward(x)
            g = seeded_rng(44).uniform(-1, 1, y.shape).astype(np.float32)
            dx = conv.backward(g)
            grads = [v.copy() for v in conv.grads.values()]
            conv.zero_grads()
            conv.forward(x)
            pos = seeded_rng(45).integers(0, y.shape[2] * y.shape[3], y.shape[:2])
            dx_at = conv.backward_at(pos, g[:, :, 0, 0])
            return [y, dx, dx_at, *grads, *conv.grads.values()]

        shape = (4, 9, 7)
        batch = fresh().block_size((1, *shape), 4) + 1
        x = seeded_rng(43).uniform(-1, 1, (batch, *shape)).astype(np.float32)
        poison = x.copy()
        poison[:, :, ::2] = np.inf
        poison[:, :, 1::2, ::3] = np.nan
        conv = fresh()
        with np.errstate(all="ignore"):
            run(conv, poison)
            run(conv, poison[:-1])
        conv.zero_grads()
        for got, want in zip(run(conv, x), run(fresh(), x)):
            assert got.tobytes() == want.tobytes()


class TestPooling:
    def test_adaptive_pool_takes_global_max(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool = L.AdaptiveMaxPool()
        assert pool.forward(x)[0, 0, 0, 0] == 4.0

    def test_maxpool_on_ramp(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = L.MaxPool2x2().forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_tie_routes_to_lowest_linear_index(self):
        pool = L.MaxPool2x2()
        x = np.full((1, 1, 2, 2), 3.0)
        pool.forward(x)
        dx = pool.backward(np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_adaptive_pool_any_spatial_size(self):
        pool = L.AdaptiveMaxPool()
        for h, w in [(1, 1), (3, 5), (32, 32)]:
            out = pool.forward(np.zeros((2, 3, h, w)))
            assert out.shape == (2, 3, 1, 1)

    def test_pool_gradients_match_finite_differences(self):
        # random inputs keep window maxima unique, away from tie points
        x = seeded_rng(12).uniform(-5, 5, (2, 2, 6, 6))
        for res in check_layer(L.MaxPool2x2(), x, eps=1e-5, tol=1e-6):
            assert res.passed, res.line()
        x = seeded_rng(13).uniform(-5, 5, (2, 3, 5, 5))
        for res in check_layer(L.AdaptiveMaxPool(), x, eps=1e-5, tol=1e-6):
            assert res.passed, res.line()

    def test_maxpool_rejects_a_3d_input(self):
        with pytest.raises(ShapeError, match=r"maxpool2x2: expected \(B,C,H,W\), got \(3, 4, 4\)"):
            L.MaxPool2x2().forward(np.zeros((3, 4, 4), dtype=np.float32))

    def test_maxpool_rejects_tiny_input(self):
        with pytest.raises(ShapeError):
            L.MaxPool2x2().forward(np.zeros((1, 1, 1, 4)))

    def test_maxpool_cache_serves_one_backward(self):
        x = seeded_rng(19).uniform(-1, 1, (2, 3, 5, 4)).astype(np.float32)
        g = np.ones((2, 3, 2, 2), dtype=np.float32)
        pool = L.MaxPool2x2()
        pool(x)
        pool.backprop(g)
        with pytest.raises(ContractError, match="maxpool2x2: backward called without a new forward"):
            pool.backprop(g)
        pool(x)
        pool.set_training(False)
        pool(x)
        with pytest.raises(ContractError, match="maxpool2x2: backward called without a new forward"):
            pool.backprop(g)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = seeded_rng(14)
        x = rng.uniform(-3, 7, (8, 3, 4, 4))
        bn = L.BatchNorm2d(3).astype(np.float64)
        out = bn.forward(x)
        assert abs(out.mean(axis=(0, 2, 3))).max() < 1e-5
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_affine_parameters_apply(self):
        rng = seeded_rng(15)
        x = rng.uniform(-1, 1, (4, 2, 3, 3))
        bn = L.BatchNorm2d(2).astype(np.float64)
        base = bn.forward(x).copy()
        bn2 = L.BatchNorm2d(2).astype(np.float64)
        bn2.params["gamma"][:] = 2.0
        bn2.params["beta"][:] = 3.0
        np.testing.assert_allclose(bn2.forward(x), 2.0 * base + 3.0, atol=1e-10)

    def test_zero_variance_guarded_by_eps(self):
        bn = L.BatchNorm2d(1).astype(np.float64)
        out = bn.forward(np.full((1, 1, 1, 1), 5.0))
        assert np.all(np.isfinite(out))

    def test_eval_mode_is_pure(self):
        rng = seeded_rng(16)
        bn = L.BatchNorm2d(2).astype(np.float64)
        for _ in range(5):
            bn.forward(rng.uniform(-1, 1, (4, 2, 3, 3)))  # accumulate running stats
        bn.set_training(False)
        x = rng.uniform(-1, 1, (4, 2, 3, 3))
        a = bn.forward(x)
        b = bn.forward(x)
        assert a.tobytes() == b.tobytes()

    def test_gradients_match_finite_differences(self):
        bn = L.BatchNorm2d(3).astype(np.float64)
        x = seeded_rng(17).uniform(-2, 2, (4, 3, 3, 3))
        for res in check_layer(bn, x, eps=1e-5, tol=1e-5):
            assert res.passed, res.line()

    def test_rejects_a_3d_input(self):
        with pytest.raises(ShapeError, match=r"batchnorm2d: expected \(B,C,H,W\), got \(3, 4, 4\)"):
            L.BatchNorm2d(3).forward(np.zeros((3, 4, 4), dtype=np.float32))

    def test_eval_forward_leaves_no_cache_for_backward(self):
        # an eval forward must not hand the previous training forward's
        # cache to backward, even when called directly rather than as bn(x)
        rng = seeded_rng(18)
        bn = L.BatchNorm2d(3)
        bn.forward(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32))
        bn.set_training(False)
        bn.forward(rng.uniform(-2, 2, (4, 3, 3, 3)).astype(np.float32))
        with pytest.raises(ContractError, match="without a new forward"):
            bn.backward(np.ones((4, 3, 3, 3), dtype=np.float32))


class TestLinear:
    def test_identity_weight(self):
        lin = L.Linear(3, 3).astype(np.float64)
        lin.params["weight"] = np.eye(3)
        x = seeded_rng(18).uniform(-1, 1, (4, 3))
        np.testing.assert_allclose(lin.forward(x), x, atol=1e-15)

    def test_bias_applies(self):
        lin = L.Linear(2, 2).astype(np.float64)
        lin.params["weight"] = np.eye(2)
        lin.params["bias"] = np.array([5.0, 5.0])
        np.testing.assert_array_equal(lin.forward(np.array([[1.0, 1.0]])), [[6.0, 6.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.Linear(3, 2).forward(np.zeros((1, 4), dtype=np.float32))

    def test_flattens_axes_after_the_batch(self):
        lin = L.Linear(6, 2, rng=seeded_rng(27)).astype(np.float64)
        x = seeded_rng(28).uniform(-1, 1, (4, 3, 2, 1))
        out = lin.forward(x)
        assert out.tobytes() == lin.forward(x.reshape(4, 6)).tobytes()
        lin.forward(x)
        assert lin.backward(np.ones_like(out)).shape == x.shape

    def test_flattened_width_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="6 features"):
            L.Linear(6, 2).forward(np.zeros((1, 7, 1, 1), dtype=np.float32))

    def test_gradients_match_finite_differences(self):
        lin = L.Linear(5, 3, rng=seeded_rng(19)).astype(np.float64)
        x = seeded_rng(20).uniform(-1, 1, (4, 5))
        for res in check_layer(lin, x, eps=1e-5, tol=1e-7):
            assert res.passed, res.line()

    def test_gradient_check_needs_64_bit_params(self):
        with pytest.raises(ContractError, match="float64"):
            check_layer(L.Linear(5, 3), seeded_rng(20).uniform(-1, 1, (4, 5)))


class TestActivations:
    def test_softplus_at_zero(self):
        out = L.Softplus().forward(np.array([0.0]))
        assert out[0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert out[0] == pytest.approx(0.6931471806, abs=1e-9)

    def test_softplus_large_input_no_overflow(self):
        out = L.Softplus().forward(np.array([100.0]))
        assert out[0] == pytest.approx(100.0, abs=1e-10)
        assert np.isfinite(out[0])

    def test_softplus_strictly_positive(self):
        x = seeded_rng(21).uniform(-500, 500, (10000,))
        assert np.all(L.Softplus().forward(x) > 0)

    def test_softplus_derivative_matches_finite_differences(self):
        sp = L.Softplus()
        x = seeded_rng(22).uniform(-5, 5, (50,))
        sp.forward(x)
        analytic = sp.backward(np.ones(50))

        def f(xv):
            return float(np.sum(L.softplus(xv)))

        numeric = numerical_gradient(f, x, eps=1e-6)
        assert np.max(np.abs(analytic - numeric)) < 1e-8

    def test_relu(self):
        out = L.ReLU().forward(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_relu_backward_equals_the_input_mask_at_special_values(self):
        # backward reads the cached output: out > 0 must be x > 0 for NaN,
        # the signed zeros and the infinities, with every gradient
        special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -1.5, 1e-45], dtype=np.float32)
        x, g = np.meshgrid(special, special)
        relu = L.ReLU()
        relu.forward(x)
        with np.errstate(invalid="ignore"):
            got, want = relu.backward(g), g * (x > 0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestComposedBlock:
    def test_conv_bn_relu_pool_chain_gradient(self):
        """Composite gradient through a full small block, layer by layer."""
        rng = seeded_rng(24)
        conv = L.Conv2d(2, 4, 3, stride=1, pad=1, bias=False, rng=rng).astype(np.float64)
        bn = L.BatchNorm2d(4).astype(np.float64)
        chain = [conv, bn, L.ReLU(), L.MaxPool2x2()]
        x = seeded_rng(25).uniform(-1, 1, (3, 2, 6, 6))
        weights = seeded_rng(26).uniform(-1, 1, (3, 4, 3, 3))

        def run(xv):
            for layer in chain:
                xv = layer.forward(xv)
            return xv

        run(x.copy())
        conv.zero_grads()
        bn.zero_grads()
        dx = weights
        for layer in reversed(chain):
            dx = layer.backward(dx)

        def f(xv):
            return float(np.sum(weights * run(xv)))

        numeric = numerical_gradient(f, x, eps=1e-5)
        assert relative_error(dx, numeric) < 1e-5


class TestLayerZooSweep:
    def test_every_kind_passes_fd_on_many_seeds(self):
        """Every layer kind stays within 1e-5 relative error across seeds."""
        for seed in range(20):
            for res in check_all_layers(seed=seed, tol=1e-5):
                assert res.passed, f"seed {seed}: {res.line()}"


def zoo_and_score_norm():
    layers = _layer_zoo(seeded_rng(0)) + [(ScoreNorm("l2"), (3, 5))]
    return [pytest.param(layer, shape, id=f"{i}-{layer.kind}")
            for i, (layer, shape) in enumerate(layers)]


@pytest.mark.parametrize("layer,shape", zoo_and_score_norm())
def test_backward_rejects_a_gradient_of_another_shape(layer, shape):
    # a batch-1 gradient would broadcast against a batch-B cache into a batch-B dx
    out = layer.forward(seeded_rng(1).uniform(-2, 2, shape))
    with pytest.raises(ShapeError, match=rf"^{layer.kind}: gradient of shape \(1, "):
        layer.backward(np.ones((1,) + out.shape[1:]))
