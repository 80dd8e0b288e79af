"""Layer forward values and analytic-vs-numerical gradient agreement."""

import numpy as np
import pytest

from stagenet import layers as L
from stagenet.errors import ContractError, ShapeError
from stagenet.gradcheck import check_all_layers, check_layer, numerical_gradient, relative_error
from stagenet.rng import SeededRng


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
        rng = SeededRng(1)
        x = rng.uniform(-1, 1, (2, 3, 5, 5))
        conv = L.Conv2d(3, 3, 3, stride=1, pad=1, bias=False, dtype=np.float64)
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        conv.params["weight"] = w
        np.testing.assert_allclose(conv.forward(x), x, atol=1e-15)

    def test_all_ones_kernel_sums_window(self):
        conv = L.Conv2d(1, 1, 3, stride=1, pad=0, bias=False, dtype=np.float64)
        conv.params["weight"] = np.ones((1, 1, 3, 3))
        out = conv.forward(np.ones((1, 1, 3, 3)))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive_oracle(self, stride, pad):
        rng = SeededRng(2)
        x = rng.uniform(-2, 2, (2, 3, 5, 5))
        conv = L.Conv2d(3, 4, 3, stride=stride, pad=pad, bias=False,
                        rng=SeededRng(3), dtype=np.float64)
        expected = naive_conv(x, conv.params["weight"], stride, pad)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-10)

    def test_1x1_matches_naive_oracle(self):
        rng = SeededRng(4)
        x = rng.uniform(-2, 2, (2, 3, 4, 4))
        conv = L.Conv2d(3, 2, 1, stride=2, pad=0, bias=False,
                        rng=SeededRng(5), dtype=np.float64)
        expected = naive_conv(x, conv.params["weight"], 2, 0)
        np.testing.assert_allclose(conv.forward(x), expected, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        conv = L.Conv2d(3, 4, 3, pad=1)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 4, 4), dtype=np.float32))

    def test_pad1_stride1_preserves_extents(self):
        conv = L.Conv2d(2, 5, 3, stride=1, pad=1, dtype=np.float64)
        for h, w in [(1, 1), (3, 7), (8, 8)]:
            out = conv.forward(np.zeros((1, 2, h, w)))
            assert out.shape == (1, 5, h, w)


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self):
        conv = L.Conv2d(2, 3, 3, pad=1, rng=SeededRng(6), dtype=np.float64)
        x = SeededRng(7).uniform(-1, 1, (2, 2, 4, 4))
        conv.forward(x)
        dx = conv.backward(np.zeros((2, 3, 4, 4)))
        assert not dx.any()
        assert not conv.grads["weight"].any()

    def test_identity_kernel_passes_grad_through(self):
        conv = L.Conv2d(1, 1, 3, stride=1, pad=1, bias=False, dtype=np.float64)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        conv.params["weight"] = w
        conv.forward(SeededRng(8).uniform(-1, 1, (1, 1, 4, 4)))
        g = SeededRng(9).uniform(-1, 1, (1, 1, 4, 4))
        np.testing.assert_allclose(conv.backward(g), g, atol=1e-15)

    def test_backward_before_forward_rejected(self):
        conv = L.Conv2d(1, 1, 3, pad=1)
        with pytest.raises(ContractError):
            conv.backward(np.zeros((1, 1, 4, 4), dtype=np.float32))

    def test_gradients_match_finite_differences(self):
        conv = L.Conv2d(2, 3, 3, stride=1, pad=1, bias=True,
                        rng=SeededRng(10), dtype=np.float64)
        x = SeededRng(11).uniform(-1, 1, (2, 2, 5, 5))
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
                        rng=SeededRng(12), dtype=np.float64)
        x = SeededRng(13).uniform(-1, 1, (2, 3, 7, 6))
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
                        rng=SeededRng(12), dtype=np.float64)
        x = SeededRng(13).uniform(-1, 1, (2, 3, 7, 6))
        y = conv.forward(x)
        cache = conv._cache
        pos = SeededRng(14).integers(0, y.shape[2] * y.shape[3], (2, 4))
        g = SeededRng(15).uniform(-1, 1, (2, 4))
        dx = conv.backward_at(pos, g)
        sparse = {key: v.copy() for key, v in conv.grads.items()}
        dense_g = np.zeros((2, 4, y.shape[2] * y.shape[3]))
        np.put_along_axis(dense_g, pos[..., None], g[..., None], axis=-1)
        conv._cache = cache
        conv.zero_grads()
        np.testing.assert_allclose(dx, conv.backward(dense_g.reshape(y.shape)), rtol=0, atol=1e-14)
        for key, v in conv.grads.items():
            np.testing.assert_allclose(sparse[key], v, rtol=0, atol=1e-14)


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
        x = SeededRng(12).uniform(-5, 5, (2, 2, 6, 6))
        for res in check_layer(L.MaxPool2x2(), x, eps=1e-5, tol=1e-6):
            assert res.passed, res.line()
        x = SeededRng(13).uniform(-5, 5, (2, 3, 5, 5))
        for res in check_layer(L.AdaptiveMaxPool(), x, eps=1e-5, tol=1e-6):
            assert res.passed, res.line()

    def test_maxpool_rejects_tiny_input(self):
        with pytest.raises(ShapeError):
            L.MaxPool2x2().forward(np.zeros((1, 1, 1, 4)))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = SeededRng(14)
        x = rng.uniform(-3, 7, (8, 3, 4, 4))
        bn = L.BatchNorm2d(3, dtype=np.float64)
        out = bn.forward(x)
        assert abs(out.mean(axis=(0, 2, 3))).max() < 1e-5
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_affine_parameters_apply(self):
        rng = SeededRng(15)
        x = rng.uniform(-1, 1, (4, 2, 3, 3))
        bn = L.BatchNorm2d(2, dtype=np.float64)
        base = bn.forward(x).copy()
        bn2 = L.BatchNorm2d(2, dtype=np.float64)
        bn2.params["gamma"][:] = 2.0
        bn2.params["beta"][:] = 3.0
        np.testing.assert_allclose(bn2.forward(x), 2.0 * base + 3.0, atol=1e-10)

    def test_zero_variance_guarded_by_eps(self):
        bn = L.BatchNorm2d(1, dtype=np.float64)
        out = bn.forward(np.full((1, 1, 1, 1), 5.0))
        assert np.all(np.isfinite(out))

    def test_eval_mode_is_pure(self):
        rng = SeededRng(16)
        bn = L.BatchNorm2d(2, dtype=np.float64)
        for _ in range(5):
            bn.forward(rng.uniform(-1, 1, (4, 2, 3, 3)))  # accumulate running stats
        bn.set_training(False)
        x = rng.uniform(-1, 1, (4, 2, 3, 3))
        a = bn.forward(x)
        b = bn.forward(x)
        assert a.tobytes() == b.tobytes()

    def test_gradients_match_finite_differences(self):
        bn = L.BatchNorm2d(3, dtype=np.float64)
        x = SeededRng(17).uniform(-2, 2, (4, 3, 3, 3))
        for res in check_layer(bn, x, eps=1e-5, tol=1e-5):
            assert res.passed, res.line()

    def test_eval_mode_gradients_match_finite_differences(self):
        # a direct forward keeps its cache in eval mode too; only child(x) drops it
        rng = SeededRng(18)
        bn = L.BatchNorm2d(3, dtype=np.float64)
        bn.forward(rng.uniform(-1, 1, (4, 3, 3, 3)))  # move the running stats off 0 and 1
        bn.set_training(False)
        for res in check_layer(bn, rng.uniform(-2, 2, (4, 3, 3, 3)), eps=1e-5, tol=1e-5):
            assert res.passed, res.line()


class TestLinear:
    def test_identity_weight(self):
        lin = L.Linear(3, 3, bias=True, dtype=np.float64)
        lin.params["weight"] = np.eye(3)
        x = SeededRng(18).uniform(-1, 1, (4, 3))
        np.testing.assert_allclose(lin.forward(x), x, atol=1e-15)

    def test_bias_applies(self):
        lin = L.Linear(2, 2, bias=True, dtype=np.float64)
        lin.params["weight"] = np.eye(2)
        lin.params["bias"] = np.array([5.0, 5.0])
        np.testing.assert_array_equal(lin.forward(np.array([[1.0, 1.0]])), [[6.0, 6.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.Linear(3, 2).forward(np.zeros((1, 4), dtype=np.float32))

    def test_flattens_axes_after_the_batch(self):
        lin = L.Linear(6, 2, bias=True, rng=SeededRng(27), dtype=np.float64)
        x = SeededRng(28).uniform(-1, 1, (4, 3, 2, 1))
        out = lin.forward(x)
        assert out.tobytes() == lin.forward(x.reshape(4, 6)).tobytes()
        lin.forward(x)
        assert lin.backward(np.ones_like(out)).shape == x.shape

    def test_flattened_width_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="6 features"):
            L.Linear(6, 2).forward(np.zeros((1, 7, 1, 1), dtype=np.float32))

    def test_gradients_match_finite_differences(self):
        lin = L.Linear(5, 3, bias=True, rng=SeededRng(19), dtype=np.float64)
        x = SeededRng(20).uniform(-1, 1, (4, 5))
        for res in check_layer(lin, x, eps=1e-5, tol=1e-7):
            assert res.passed, res.line()

    def test_gradient_check_needs_64_bit_params(self):
        with pytest.raises(ContractError, match="float64"):
            check_layer(L.Linear(5, 3), SeededRng(20).uniform(-1, 1, (4, 5)))


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
        x = SeededRng(21).uniform(-500, 500, (10000,))
        assert np.all(L.Softplus().forward(x) > 0)

    def test_softplus_derivative_matches_finite_differences(self):
        sp = L.Softplus()
        x = SeededRng(22).uniform(-5, 5, (50,))
        sp.forward(x)
        analytic = sp.backward(np.ones(50))

        def f(xv):
            return float(np.sum(L.softplus(xv)))

        numeric = numerical_gradient(f, x, eps=1e-6)
        assert np.max(np.abs(analytic - numeric)) < 1e-8

    def test_relu(self):
        out = L.ReLU().forward(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0])


class TestComposedBlock:
    def test_conv_bn_relu_pool_chain_gradient(self):
        """Composite gradient through a full small block, layer by layer."""
        rng = SeededRng(24)
        conv = L.Conv2d(2, 4, 3, stride=1, pad=1, bias=False, rng=rng, dtype=np.float64)
        bn = L.BatchNorm2d(4, dtype=np.float64)
        chain = [conv, bn, L.ReLU(), L.MaxPool2x2()]
        x = SeededRng(25).uniform(-1, 1, (3, 2, 6, 6))
        weights = SeededRng(26).uniform(-1, 1, (3, 4, 3, 3))

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
