"""Properties over drawn inputs: shape arithmetic agrees with a real
forward, ``count_stats`` agrees with the output sizes of a real forward,
``MaxPool2x2`` agrees with a per-window loop, and the score normalizers
keep their invariants.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stagenet import build_preset
from stagenet.errors import ShapeError
from stagenet.layers import Conv2d, Linear, MaxPool2x2
from stagenet.scorenorm import l2_score, softmax

fixed = settings(derandomize=True, deadline=None, max_examples=30)
extents = st.integers(min_value=1, max_value=9)


def forward_shape(layer, shape):
    """The output shape of a real forward, or ShapeError if it raised one."""
    try:
        return layer.forward(np.zeros(shape, dtype=np.float32)).shape
    except ShapeError:
        return ShapeError


def out_hw_shape(layer, b, c, h, w):
    try:
        return (b, c, *layer.out_hw(h, w))
    except ShapeError:
        return ShapeError


@fixed
@given(h=extents, w=extents, k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
       pad=st.sampled_from([0, 1]))
def test_conv_out_hw_matches_forward(h, w, k, stride, pad):
    conv = Conv2d(2, 3, k, stride=stride, pad=pad)
    assert out_hw_shape(conv, 2, 3, h, w) == forward_shape(conv, (2, 2, h, w))


@fixed
@given(h=extents, w=extents)
def test_maxpool_out_hw_matches_forward(h, w):
    pool = MaxPool2x2()
    assert out_hw_shape(pool, 2, 3, h, w) == forward_shape(pool, (2, 3, h, w))


def naive_maxpool(x, g):
    """Per-window loop: each window's max, and its gradient routed to the
    first element in row-major order that attains it."""
    b, c, h, w = x.shape
    out = np.zeros((b, c, h // 2, w // 2), dtype=x.dtype)
    dx = np.zeros_like(x)
    for n in range(b):
        for k in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    best = (2 * i, 2 * j)
                    for r, q in ((2 * i, 2 * j + 1), (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1)):
                        if x[n, k, r, q] > x[n, k, best[0], best[1]]:
                            best = (r, q)
                    out[n, k, i, j] = x[n, k, best[0], best[1]]
                    dx[n, k, best[0], best[1]] = g[n, k, i, j]
    return out, dx


pool_inputs = arrays(st.sampled_from([np.float32, np.float64]),
                     st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(2, 9),
                               st.integers(2, 9)),
                     elements=st.integers(-2, 2).map(float) | st.sampled_from([np.inf, -np.inf]))


@fixed
@given(x=pool_inputs)
def test_maxpool_matches_a_per_window_loop(x):
    # small integers and infinities make ties common; array_equal counts
    # -0.0 == 0.0, and np.maximum may keep either zero of a window holding both
    pool = MaxPool2x2()
    out = pool.forward(x)
    g = np.arange(1, out.size + 1, dtype=x.dtype).reshape(out.shape)
    want_out, want_dx = naive_maxpool(x, g)
    dx = pool.backward(g)
    assert out.dtype == dx.dtype == x.dtype
    assert np.array_equal(out, want_out)
    assert np.array_equal(dx, want_dx)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(preset=st.sampled_from(["mini_cnn", "mini_vgg", "mini_resnet"]),
       mode=st.sampled_from(["original", "multi"]),
       h=st.sampled_from([8, 12, 16]), w=st.sampled_from([8, 12, 16]),
       batch=st.integers(min_value=1, max_value=3), flop_mode=st.sampled_from([1, 2]))
def test_count_stats_matches_a_real_forward(preset, mode, h, w, batch, flop_mode):
    # priced by hand from each leaf's output size in an eval forward at the full batch
    model = build_preset(preset, mode, n_classes=4)
    sizes = []
    with model.hooked(lambda name, layer, d, out: sizes.append((layer, out.size))):
        model.forward(np.zeros((batch, 3, h, w), dtype=np.float32))
    flops = 0
    for layer, n in sizes:
        if isinstance(layer, Conv2d):
            flops += flop_mode * n * layer.in_channels * layer.kernel_size ** 2
        elif isinstance(layer, Linear):
            flops += flop_mode * n * layer.in_features
        elif not layer.children():
            flops += n
    stats = model.count_stats((batch, 3, h, w), flop_mode)
    assert stats.flops == flops
    assert stats.params == sum(p.size for p in model.named_params().values())


scores = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 6)),
                elements=st.floats(-60, 60))


@fixed
@given(x=scores, shift=st.floats(-30, 30))
def test_normalizer_invariants(x, shift):
    s, ell = softmax(x), l2_score(x)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose((ell * ell).sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ell, np.sqrt(s), rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(softmax(x + shift), s, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(l2_score(x + shift), ell, rtol=1e-9, atol=1e-12)
    # a tie in x may come out unequal in s only by rounding, so compare on
    # rows whose top two scores are apart
    top2 = np.sort(x, axis=1)[:, -2:]
    apart = top2[:, 1] - top2[:, 0] > 1e-9
    for out in (s, ell):
        assert np.array_equal(np.argmax(out, axis=1)[apart], np.argmax(x, axis=1)[apart])

