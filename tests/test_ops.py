"""Neural network building blocks: values, shapes, and gradients."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import ops
from sliceseg.autodiff import Tensor, backward, mean_all, mul, sum_all
from sliceseg.gradcheck import finite_difference_check


def rand(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


# ---------------------------------------------------------------------------
# convolution


def test_conv2d_identity_kernel():
    # a 3x3 kernel with a single center 1 reproduces the padded input
    x = rand((1, 5, 5, 1), seed=1)
    w = np.zeros((3, 3, 1, 1))
    w[1, 1, 0, 0] = 1.0
    y = ops.conv_forward(x, Tensor(w), Tensor(np.zeros(1)), (True, True))
    assert np.allclose(y.data, x.data)


def test_conv2d_matches_direct_sum():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    y = ops.conv_forward(Tensor(x), Tensor(w), Tensor(b), (True, True)).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    for i in range(4):
        for j in range(4):
            ref = np.einsum("abc,abco->o", xp[0, i:i + 3, j:j + 3], w) + b
            assert np.allclose(y[0, i, j], ref)


def test_conv3d_depth_valid_shrinks_by_two():
    x = rand((1, 6, 6, 5, 2), seed=3)
    w = rand((3, 3, 3, 2, 4), seed=4)
    y = ops.conv_forward(x, w, Tensor(np.zeros(4)), (True, True, False))
    assert y.data.shape == (1, 6, 6, 3, 4)


def test_conv_rejects_channel_mismatch():
    x = rand((1, 4, 4, 2))
    w = rand((3, 3, 3, 5))
    with pytest.raises(ValueError):
        ops.conv_forward(x, w, None, (True, True))


def test_conv_rejects_empty_valid_extent():
    x = rand((1, 4, 4, 2, 2))
    w = rand((3, 3, 3, 2, 2))
    with pytest.raises(ValueError):
        ops.conv_forward(x, w, None, (True, True, False))


def test_conv_bias_none_supported():
    x = rand((1, 4, 4, 1), seed=5)
    w = rand((3, 3, 1, 2), seed=6)
    y0 = ops.conv_forward(x, w, None, (True, True)).data
    y1 = ops.conv_forward(x, w, Tensor(np.zeros(2)), (True, True)).data
    assert np.allclose(y0, y1)


@settings(deadline=None, max_examples=20)
@given(h=st.integers(2, 7), w_=st.integers(2, 7), cin=st.integers(1, 3),
       cout=st.integers(1, 3))
def test_conv2d_padded_preserves_spatial_shape(h, w_, cin, cout):
    x = rand((1, h, w_, cin), seed=h * 100 + w_)
    w = rand((3, 3, cin, cout), seed=cin * 10 + cout)
    y = ops.conv_forward(x, w, None, (True, True))
    assert y.data.shape == (1, h, w_, cout)


def test_conv2d_gradients():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 4, 4, 2)))
        w = Tensor(rng.normal(size=(3, 3, 2, 3)))
        b = Tensor(rng.normal(size=3))
        report = finite_difference_check(
            lambda x_, w_, b_: sum_all(mul(y := ops.conv_forward(x_, w_, b_, (True, True)), y)),
            [x, w, b])
        assert report.max_rel_error < 1e-6


def test_conv3d_valid_depth_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(1, 3, 3, 3, 2)))
    w = Tensor(rng.normal(size=(3, 3, 3, 2, 2)))
    b = Tensor(rng.normal(size=2))
    report = finite_difference_check(
        lambda x_, w_, b_: sum_all(
            mul(y := ops.conv_forward(x_, w_, b_, (True, True, False)), y)),
        [x, w, b])
    assert report.max_rel_error < 1e-6


def _scatter_input_grad(x, w, g, padded_axes):
    """Reference input gradient of ``conv_forward``: multiply the output
    gradient by the transposed kernel matrix, then scatter-add every
    kernel offset's columns into a zeroed padded buffer and crop it."""
    rank = w.ndim - 2
    kernel, cin, cout = w.shape[:rank], w.shape[rank], w.shape[rank + 1]
    pads = tuple(k // 2 if p else 0 for k, p in zip(kernel, padded_axes))
    out_spatial = g.shape[1:1 + rank]
    gcols = (g.reshape(-1, cout) @ w.reshape(-1, cout).T).reshape(
        (x.shape[0], *out_spatial, *kernel, cin))
    gxp = np.zeros((x.shape[0], *(s + 2 * p for s, p in zip(x.shape[1:1 + rank], pads)), cin))
    for idx in np.ndindex(*kernel):
        window = tuple(slice(i, i + o) for i, o in zip(idx, out_spatial))
        sel = (slice(None), *([slice(None)] * rank), *idx, slice(None))
        gxp[(slice(None), *window, slice(None))] += gcols[sel]
    unpad = tuple(slice(p, s - p) for p, s in zip(pads, gxp.shape[1:1 + rank]))
    return gxp[(slice(None), *unpad, slice(None))]


@st.composite
def _conv_cases(draw):
    rank = draw(st.sampled_from((2, 3)))
    k = draw(st.sampled_from((1, 3)))
    padded = tuple(draw(st.lists(st.booleans(), min_size=rank, max_size=rank)))
    shape = (draw(st.integers(1, 3)), *draw(st.lists(st.integers(3, 5), min_size=rank,
                                                     max_size=rank)),
             draw(st.integers(1, 4)))
    return padded, shape, (k,) * rank + (shape[-1], draw(st.integers(1, 4))), draw(
        st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(_conv_cases())
def test_conv_input_grad_matches_scatter_reference(case):
    padded, x_shape, w_shape, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    y = ops.conv_forward(x, w, None, padded)
    g = rng.normal(size=y.data.shape)
    backward(sum_all(mul(y, Tensor(g))))
    want = _scatter_input_grad(x.data, w.data, g, padded)
    np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# pooling and unpooling


def test_maxpool_values_and_indices():
    x = np.array([[1.0, 2.0, 5.0, 4.0],
                  [3.0, 0.0, 1.0, 1.0],
                  [7.0, 2.0, 2.0, 2.0],
                  [1.0, 8.0, 3.0, 9.0]]).reshape(1, 4, 4, 1)
    y, idx = ops.maxpool_with_indices(Tensor(x), rank=2)
    assert np.allclose(y.data[0, :, :, 0], [[3.0, 5.0], [8.0, 9.0]])
    restored = ops.max_unpool(y, idx).data[0, :, :, 0]
    assert restored[1, 0] == 3.0 and restored[0, 2] == 5.0
    assert restored[3, 1] == 8.0 and restored[3, 3] == 9.0
    assert np.count_nonzero(restored) == 4


def test_maxpool_tie_breaks_to_first_row_major():
    x = np.full((1, 2, 2, 1), 4.0)
    y, idx = ops.maxpool_with_indices(Tensor(x), rank=2)
    restored = ops.max_unpool(y, idx).data[0, :, :, 0]
    assert restored[0, 0] == 4.0
    assert np.count_nonzero(restored) == 1


def test_maxpool_rejects_odd_extent():
    with pytest.raises(ValueError):
        ops.maxpool_with_indices(rand((1, 3, 4, 1)), rank=2)


def test_maxpool3d_shape():
    y, idx = ops.maxpool_with_indices(rand((2, 4, 6, 8, 3), seed=15), rank=3)
    assert y.data.shape == (2, 2, 3, 4, 3)


def test_maxpool_gradient_routes_to_argmax():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 0.5]]).reshape(1, 2, 2, 1),
               requires_grad=True)
    y, _ = ops.maxpool_with_indices(x, rank=2)
    backward(sum_all(y))
    g = x.grad[0, :, :, 0]
    assert g[1, 0] == 1.0 and g.sum() == 1.0


def test_unpool_gradient_gathers():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
    y, idx = ops.maxpool_with_indices(x, rank=2)
    z = ops.max_unpool(y, idx)
    backward(sum_all(mul(z, z)))
    assert x.grad is not None and x.grad.shape == x.data.shape


def test_pool_unpool_gradcheck_away_from_ties():
    # well-separated values keep the argmax stable under the probe step
    rng = np.random.default_rng(17)
    base = rng.permutation(16).astype(np.float64).reshape(1, 4, 4, 1) * 3.0
    x = Tensor(base)
    report = finite_difference_check(
        lambda x_: sum_all(mul(y := ops.max_unpool(*ops.maxpool_with_indices(x_, 2)), y)),
        [x])
    assert report.max_rel_error < 1e-6


# ---------------------------------------------------------------------------
# upsampling


def test_upsample_nearest_repeats():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
    y = ops.upsample_nearest(x, rank=2).data[0, :, :, 0]
    assert np.allclose(y, [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])


def test_upsample_gradient_is_window_sum():
    x = Tensor(np.ones((1, 2, 2, 1)), requires_grad=True)
    y = ops.upsample_nearest(x, rank=2)
    backward(sum_all(y))
    assert np.allclose(x.grad, 4.0)


def test_upsample3d_gradcheck():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(1, 2, 2, 2, 2)))
    report = finite_difference_check(
        lambda x_: sum_all(mul(y := ops.upsample_nearest(x_, 3), y)), [x])
    assert report.max_rel_error < 1e-7


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_normalizes_in_training():
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 8, 8, 2)))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    running = ops.RunningStats(2)
    y = ops.batch_norm(x, gamma, beta, running, training=True).data
    # the ReLU of a zero-mean, unit-variance batch
    axes = (0, 1, 2)
    z = (x.data - x.data.mean(axis=axes)) / np.sqrt(x.data.var(axis=axes) + 1e-3)
    np.testing.assert_allclose(y, np.maximum(z, 0.0), atol=1e-12)
    assert y.min() == 0.0 and 0.3 < np.mean(y > 0) < 0.7


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(loc=2.0, size=(8, 4, 4, 1)))
    running = ops.RunningStats(1)
    ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), running, training=True)
    # momentum 0.99 pulls the zero-init mean slightly toward the batch mean
    batch_mean = x.data.mean(axis=(0, 1, 2))
    assert np.allclose(running.mean, 0.01 * batch_mean)


def test_batch_norm_inference_uses_running_stats():
    running = ops.RunningStats(1)
    running.mean[:] = 1.0
    running.var[:] = 4.0
    x = Tensor(np.array([3.0, -1.0]).reshape(1, 2, 1, 1))
    y = ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), running,
                       training=False).data
    # (3 - 1) / std stays; (-1 - 1) / std is negative and the ReLU zeroes it
    assert np.allclose(y.ravel(), [(3.0 - 1.0) / np.sqrt(4.0 + 1e-3), 0.0])


def test_batch_norm_gradients():
    # probe through a fixed random linear functional: the normalization
    # constraint makes quadratic-loss input gradients nearly cancel, which
    # drowns the comparison in finite-difference roundoff. The offset keeps
    # every output on the linear side of the ReLU, so this checks the
    # normalisation's own gradient; criterion 1 checks across ReLU kinks.
    for seed in range(3):
        rng = np.random.default_rng(seed + 30)
        x = Tensor(rng.normal(size=(3, 4, 4, 2)))
        gamma = Tensor(rng.normal(size=2))
        beta = Tensor(rng.normal(size=2) + 5.0)
        probe = Tensor(rng.normal(size=(3, 4, 4, 2)), requires_grad=False)

        def fn(x_, g_, b_):
            running = ops.RunningStats(2)
            y = ops.batch_norm(x_, g_, b_, running, training=True)
            assert y.data.min() > 0.0
            return sum_all(mul(y, probe))

        report = finite_difference_check(fn, [x, gamma, beta])
        assert report.max_rel_error < 1e-6


def _unfused_bn_relu(x, gamma, beta, running, training, g, momentum=0.99, eps=1e-3):
    """Reference: the former separate batch norm node followed by a ReLU
    node ``y * (y > 0)``, forward and backward in their original order.
    Returns the output and the x, gamma and beta gradients for an output
    gradient ``g``; updates ``running`` as the training forward did."""
    axes = tuple(range(x.ndim - 1))
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running.mean[:] = momentum * running.mean + (1.0 - momentum) * mean
        running.var[:] = momentum * running.var + (1.0 - momentum) * var
    else:
        mean = running.mean
        var = running.var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    bn = gamma * xhat + beta
    mask = bn > 0
    y = bn * mask
    g = g * mask
    if training:
        gxhat = g * gamma
        gx = (gxhat - gxhat.mean(axis=axes) - xhat * (gxhat * xhat).mean(axis=axes)) * inv_std
    else:
        gx = g * gamma * inv_std
    return y, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


@st.composite
def _bn_cases(draw):
    rank = draw(st.sampled_from((2, 3)))
    shape = (draw(st.integers(1, 3)), *draw(st.lists(st.integers(1, 5), min_size=rank,
                                                     max_size=rank)),
             draw(st.integers(1, 8)))
    return shape, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_bn_cases())
def test_batch_norm_relu_matches_unfused_oracle_bit_for_bit(case):
    shape, training, seed = case
    rng = np.random.default_rng(seed)
    c = shape[-1]
    x = Tensor(rng.normal(loc=1.0, scale=2.0, size=shape), requires_grad=True)
    gamma = Tensor(rng.normal(size=c), requires_grad=True)
    beta = Tensor(rng.normal(size=c), requires_grad=True)
    g = rng.normal(size=shape)
    running, ref_running = ops.RunningStats(c), ops.RunningStats(c)
    for stats in (running, ref_running):
        stats.mean[:] = np.arange(c) * 0.1
        stats.var[:] = 1.0 + np.arange(c) * 0.5
    want = _unfused_bn_relu(x.data, gamma.data, beta.data, ref_running, training, g)
    y = ops.batch_norm(x, gamma, beta, running, training)
    backward(sum_all(mul(y, Tensor(g))))
    for got, ref in zip((y.data, x.grad, gamma.grad, beta.grad), want):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(running.mean, ref_running.mean)
    np.testing.assert_array_equal(running.var, ref_running.var)


@settings(max_examples=60, deadline=None)
@given(_bn_cases())
def test_batch_norm_var_from_centred_input_equals_numpy_var(case):
    # with momentum 0 the running averages hold the batch statistics themselves
    shape, _, seed = case
    x = np.random.default_rng(seed).normal(loc=3.0, scale=5.0, size=shape)
    axes = tuple(range(x.ndim - 1))
    running = ops.RunningStats(shape[-1])
    ops.batch_norm(Tensor(x), Tensor(np.ones(shape[-1])), Tensor(np.zeros(shape[-1])),
                   running, training=True, momentum=0.0)
    np.testing.assert_array_equal(running.mean, x.mean(axis=axes))
    np.testing.assert_array_equal(running.var, x.var(axis=axes))


# ---------------------------------------------------------------------------
# cost trace


def test_cost_trace_records_conv_macs():
    records = []
    with ops.cost_trace(records):
        ops.conv_forward(rand((1, 8, 8, 1)), rand((3, 3, 1, 1)), Tensor(np.zeros(1)),
                         (True, True))
    assert len(records) == 1
    assert records[0].macs == 9 * 64
    assert records[0].shape == (1, 8, 8, 1)


def test_cost_trace_is_off_by_default():
    records = []
    ops.conv_forward(rand((1, 4, 4, 1)), rand((3, 3, 1, 1)), None, (True, True))
    assert records == []


def test_cost_trace_nests_and_restores_the_outer_list():
    def conv():
        ops.conv_forward(rand((1, 4, 4, 1)), rand((3, 3, 1, 1)), None, (True, True))

    outer, inner = [], []
    with ops.cost_trace(outer):
        conv()
        with ops.cost_trace(inner):
            conv()
        conv()
    conv()
    assert len(outer) == 2 and len(inner) == 1
