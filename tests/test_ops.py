"""Neural network building blocks: values, shapes, and gradients."""
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from sliceseg import models, ops
from sliceseg.autodiff import Tensor, backward, mul, no_grad, sum_all
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


def test_conv_rejects_bias_shape_before_any_work(monkeypatch):
    def no_columns(*args):
        raise AssertionError("columns built before the bias was checked")

    monkeypatch.setattr(ops, "_conv_windows", no_columns)
    with pytest.raises(ValueError, match=r"bias shape \(3,\) does not match 2 filters"):
        ops.conv_forward(rand((1, 4, 4, 1)), rand((3, 3, 1, 2)), Tensor(np.zeros(3)),
                         (True, True))


@pytest.mark.parametrize("x_shape,w_shape,axis", [
    ((0, 4, 4, 2), (3, 3, 2, 3), "batch"),
    ((0, 4, 4, 4, 1), (3, 3, 3, 1, 2), "batch"),
    ((1, 4, 4, 0), (3, 3, 0, 3), "input channel"),
    ((1, 4, 4, 2), (3, 3, 2, 0), "filter"),
    ((1, 4, 4, 2), (0, 3, 2, 3), "kernel axis 0"),
    ((1, 4, 4, 4, 2), (3, 3, 0, 2, 3), "kernel axis 2"),
])
def test_conv_rejects_empty_axis_before_any_work(monkeypatch, x_shape, w_shape, axis):
    def no_columns(*args):
        raise AssertionError("columns built before the empty axis was checked")

    monkeypatch.setattr(ops, "_conv_windows", no_columns)
    with pytest.raises(ValueError, match=rf"conv {axis} axis is empty"):
        ops.conv_forward(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), None)


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


def _columns(xp, kernel):
    """Reference column matrix, built independently of ``ops._conv_windows``:
    a sliding-window view moved to (N, *out, *kernel, C) and copied."""
    rank = len(kernel)
    win = sliding_window_view(xp, kernel, axis=tuple(range(1, 1 + rank)))
    win = win.transpose(0, *range(1, 1 + rank), *range(2 + rank, 2 + 2 * rank), 1 + rank)
    return np.ascontiguousarray(win).reshape(math.prod(win.shape[:1 + rank]), -1)


@st.composite
def _window_cases(draw):
    # a slice of a larger array on every axis, so the view's strides are not
    # those of a contiguous array
    rank = draw(st.sampled_from((2, 3)))
    kernel = tuple(draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)))
    shape = (draw(st.integers(1, 3)), *(k + draw(st.integers(0, 3)) for k in kernel),
             draw(st.integers(1, 4)))
    starts = tuple(0 if i == 0 else draw(st.integers(0, 2)) for i in range(len(shape)))
    return shape, starts, kernel, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(_window_cases())
def test_im2col_equals_sliding_window_columns(case):
    shape, starts, kernel, seed = case
    base = np.random.default_rng(seed).normal(size=tuple(s + 2 * o for s, o in zip(shape, starts)))
    xp = base[tuple(slice(o, o + s) for s, o in zip(shape, starts))]
    win, want = ops._conv_windows(xp, kernel), _columns(xp, kernel)
    assert not win.flags.writeable
    np.testing.assert_array_equal(win.reshape(want.shape), want)


def test_im2col_rejects_window_larger_than_input():
    with pytest.raises(ValueError, match=r"window \(3, 3\) is larger than input \(1, 2, 4, 1\)"):
        ops._conv_windows(np.zeros((1, 2, 4, 1)), (3, 3))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 4), min_size=4, max_size=5),
       st.lists(st.integers(0, 2), min_size=3, max_size=3))
@example([2, 3, 4, 2], [0, 0, 0])
@example([1, 2, 3, 4, 2], [0, 0, 0])
def test_pad_equals_np_pad(shape, pads):
    x = np.random.default_rng(len(shape)).normal(size=shape)
    pads = tuple(pads[:len(shape) - 2])
    np.testing.assert_array_equal(ops._pad(x, pads),
                                  np.pad(x, ((0, 0), *((p, p) for p in pads), (0, 0))))


def _monolithic_conv(x, w, b, g, padded_axes):
    """Oracle for ``conv_forward`` on whole column matrices: output, and the
    x, w and b gradients for output gradient ``g``."""
    rank = w.ndim - 2
    kernel, cin, cout = w.shape[:rank], w.shape[rank], w.shape[rank + 1]
    pads = tuple(k // 2 if p else 0 for k, p in zip(kernel, padded_axes))
    cols = _columns(np.pad(x, ((0, 0), *((p, p) for p in pads), (0, 0))), kernel)
    y = cols @ w.reshape(-1, cout)
    y += b
    gmat = g.reshape(-1, cout)
    gw = (cols.T @ gmat).reshape(w.shape)
    del cols
    gp = np.pad(g, ((0, 0), *((k - 1 - p,) * 2 for k, p in zip(kernel, pads)), (0, 0)))
    wflip = np.flip(w, tuple(range(rank))).swapaxes(rank, rank + 1)
    gx = (_columns(gp, kernel) @ wflip.reshape(-1, cin)).reshape(x.shape)
    return y.reshape(g.shape), gx, gw, gmat.sum(axis=0)


# conv shapes of the workloads whose columns exceed the budget: the 3D and
# transition convs of train_step and predict_volume, a 2D decoder conv at
# f=16 and one at grid_run's f=4; the forward and the input gradient take
# blocks of whole samples or of rows of one sample, and the two 3D convs
# with 16 and 48 input channels take channel-span weight-gradient blocks;
# the (8, 32, 32, 7, 1) and (8, 32, 32, 16) -> 1 convs add their bias over
# rows of one and of four channels. The last three are the workload convs
# whose row blocks sit nearest the small-matrix bound: a valid-depth
# transition conv, the f=16 3D decoder conv at 96 channels and the f=4 2D
# decoder conv at 24.
BLOCKED_CONVS = [((1, 32, 32, 16, 48), 16, (True, True, True)),
                 ((8, 32, 32, 7, 16), 16, (True, True, False)),
                 ((8, 32, 32, 7, 1), 16, (True, True, False)),
                 ((1, 32, 32, 20, 4), 16, (True, True, False)),
                 ((8, 32, 32, 48), 16, (True, True)),
                 ((8, 32, 32, 12), 4, (True, True)),
                 ((8, 32, 32, 16), 1, (True, True)),
                 ((2, 32, 32, 5, 8), 4, (True, True, False)),
                 ((8, 32, 32, 5, 16), 16, (True, True, False)),
                 ((1, 16, 16, 8, 96), 32, (True, True, True)),
                 ((8, 16, 16, 24), 8, (True, True))]


@pytest.mark.parametrize("x_shape,cout,padded", BLOCKED_CONVS)
def test_blocked_conv_equals_monolithic_columns(x_shape, cout, padded):
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=(3,) * len(padded) + (x_shape[-1], cout)), requires_grad=True)
    b = Tensor(rng.normal(size=cout), requires_grad=True)
    y = ops.conv_forward(x, w, b, padded)
    g = rng.normal(size=y.data.shape)
    backward(sum_all(mul(y, Tensor(g))))
    want_y, want_gx, want_gw, want_gb = _monolithic_conv(x.data, w.data, b.data, g, padded)
    np.testing.assert_array_equal(y.data, want_y)
    np.testing.assert_array_equal(x.grad, want_gx)
    np.testing.assert_array_equal(w.grad, want_gw)
    np.testing.assert_array_equal(b.grad, want_gb)


@pytest.mark.parametrize("threads", [1, 2])
def test_blocked_conv_equals_monolithic_columns_at_pinned_blas_threads(threads):
    # tier 1 leaves the BLAS thread count unpinned, and some products round
    # differently at another thread count, so check the same equalities at
    # one and at two threads on any host
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, (str(root / "src"),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_blocked_conv_equals_monolithic_columns"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert f"{len(BLOCKED_CONVS)} passed" in proc.stdout


@pytest.mark.parametrize("x_shape,cout,padded", BLOCKED_CONVS)
def test_blocked_conv_keeps_every_column_block_within_budget(monkeypatch, x_shape, cout,
                                                             padded):
    plans = []
    real_plan = ops._plan

    def spy(extents, unit_bytes, budget):
        blocks = real_plan(extents, unit_bytes, budget)
        # the bytes of each block's copy: its element count at unit_bytes each
        plans.append((budget, [np.broadcast_to(0, extents)[index].size * unit_bytes
                               for index in blocks]))
        return blocks

    monkeypatch.setattr(ops, "_plan", spy)
    x = rand(x_shape, seed=1)
    x.requires_grad = True
    kernel = (3,) * len(padded)
    w = rand(kernel + (x_shape[-1], cout), seed=2)
    w.requires_grad = True
    y = ops.conv_forward(x, w, None, padded)
    backward(sum_all(y))
    # the forward's columns, then the backward's weight-gradient and input-gradient ones
    (forward_budget, forward), (_, weight), (_, gx) = plans
    whole = math.prod(y.data.shape[:-1]) * math.prod(kernel) * x_shape[-1] * 8
    whole_gx = math.prod(x_shape[:-1]) * math.prod(kernel) * cout * 8
    assert whole > forward_budget  # the forward must split
    # the weight gradient splits exactly when its columns exceed the cap
    assert (len(weight) > 1) == (whole > ops._COLUMN_BUDGET)
    assert sum(forward) == sum(weight) == whole and sum(gx) == whole_gx  # each tiled once
    assert len(forward) + len(weight) + len(gx) > 4
    assert all(size <= budget <= ops._COLUMN_BUDGET for budget, sizes in plans for size in sizes)


# every conv of the benchmark's cells, on all four modes and both backbones:
# (base filters, input channels, d of the two slice modes, whether it
# trains) for train_step, predict_volume's two slice depths and grid_run;
# each runs predict_volume's slabs, and a training batch when it trains
WORKLOAD_SHAPES = [(16, 1, 7, True), (16, 4, 13, False), (16, 4, 5, False), (4, 1, 3, True)]


@pytest.mark.parametrize("base_filters,channels,slice_d,trains", WORKLOAD_SHAPES)
def test_workload_row_blocks_stay_within_4_mib_and_above_the_small_matrix_bound(
        monkeypatch, base_filters, channels, slice_d, trains):
    # OpenBLAS rounds a product of at most 10**6 multiply-adds in its
    # small-matrix kernel, so a block that small would change the bits of a
    # split product; at one column (gemv) no block can both pass that bound
    # and stay within 4 MiB, and the gemv path keeps the 4 MiB partition
    products = []
    real_row_blocks = ops._row_blocks

    def spy(rows, k, cols, itemsize):
        blocks = real_row_blocks(rows, k, cols, itemsize)
        products.append((rows, k, cols, [np.broadcast_to(0, rows)[index].size
                                         for index in blocks]))
        return blocks

    monkeypatch.setattr(ops, "_row_blocks", spy)
    rng = np.random.default_rng(0)
    for mode, backbone in [(m, b) for m in ("end2end_2d", "proposed", "channel_based",
                                            "end2end_3d") for b in ("unet", "segnet")]:
        d = {"end2end_2d": 1, "end2end_3d": 16}.get(mode, slice_d)
        model = models.assemble_model(models.ModelSpec(mode, backbone, d, channels, 3,
                                                       base_filters=base_filters))
        # training batches of 8 stacks (one volume tile in 3D); predict_volume's
        # slabs of 8 slice centres with d // 2 neighbours on either side
        batch, slab = (1, d) if mode == "end2end_3d" else (8, d + 7)
        if trains:
            y = model.forward(Tensor(rng.normal(size=(batch, 32, 32, d, channels))),
                              training=True)
            backward(sum_all(y))
        with no_grad():
            model.forward(Tensor(rng.normal(size=(1, 32, 32, slab, channels))))
    assert any(len(sizes) > 1 for *_, sizes in products)
    for rows, k, cols, sizes in products:
        assert sum(sizes) == math.prod(rows)
        assert max(sizes) * k * 8 <= 4 * 2**20, (rows, k, cols)
        if len(sizes) > 1 and cols >= 2:
            assert min(sizes) * k * cols > 10**6, (rows, k, cols)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(1, 4096),
       st.integers(8, 2**16))
def test_plan_tiles_in_order_with_contiguous_blocks_within_budget(extents, unit_bytes, budget):
    # conv products write each block's product into out[index] viewed as
    # rows, which needs every block to be a contiguous run of the array
    extents = tuple(extents)
    a = np.arange(math.prod(extents)).reshape(extents)
    blocks = ops._plan(extents, unit_bytes, budget)
    np.testing.assert_array_equal(np.concatenate([a[index].ravel() for index in blocks]),
                                  np.arange(a.size))
    for index in blocks:
        assert a[index].flags.c_contiguous
        assert a[index].size * unit_bytes <= max(budget, unit_bytes)
        # the conv row budgets rely on this to keep split blocks above a bound
        assert len(blocks) == 1 or a[index].size * unit_bytes > budget / 3


@settings(deadline=None, max_examples=60)
@given(_conv_cases(), st.integers(8, 2**16))
def test_conv_columns_in_blocks_of_any_budget_match_monolithic(case, budget):
    # tiny budgets exercise every split: spans of the first output axis,
    # and weight-gradient groups on each kernel axis down to single offsets;
    # blocks this small may take another BLAS path, so equality is to rounding
    padded, x_shape, w_shape, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = Tensor(rng.normal(size=w_shape), requires_grad=True)
    b = Tensor(rng.normal(size=w_shape[-1]), requires_grad=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_COLUMN_BUDGET", budget)
        y = ops.conv_forward(x, w, b, padded)
        g = rng.normal(size=y.data.shape)
        backward(sum_all(mul(y, Tensor(g))))
    for got, want in zip((y.data, x.grad, w.grad, b.grad),
                         _monolithic_conv(x.data, w.data, b.data, g, padded)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# pooling and unpooling


@st.composite
def _window_inputs(draw):
    """An (N, *spatial, C) array of rank 1-3 with even extents 2-8, an array
    of its pooled shape and random window codes."""
    rank = draw(st.integers(1, 3))
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    half = draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pooled = (n, *half, c)
    return (rng.normal(size=(n, *(2 * h for h in half), c)), rng.normal(size=pooled),
            rng.integers(0, 2**rank, size=pooled))


@settings(max_examples=60, deadline=None)
@given(_window_inputs())
def test_windows_hold_each_window_in_row_major_order(case):
    x, _, _ = case
    rank = x.ndim - 2
    win = ops._windows(x)
    assert win.shape == (2**rank, x.shape[0], *(s // 2 for s in x.shape[1:-1]), x.shape[-1])
    assert win.flags.c_contiguous
    # the gather/scatter pair indexes the same window order as pooling's codes
    for k in range(2**rank):
        np.testing.assert_array_equal(ops._gather(x, np.full(win.shape[1:], k)), win[k])
    for k, n, *i, c in np.ndindex(win.shape):
        offset = np.unravel_index(k, (2,) * rank)
        assert win[(k, n, *i, c)] == x[(n, *(2 * a + b for a, b in zip(i, offset)), c)]


@settings(max_examples=60, deadline=None)
@given(_window_inputs())
def test_scatter_is_the_adjoint_of_gather(case):
    b, a, codes = case
    lhs = np.sum(ops._scatter(a, codes) * b)
    rhs = np.sum(a * ops._gather(b, codes))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def _window_last(x):
    """Reference window view: (N, *spatial, C) -> (N, *spatial/2, C, 2**rank),
    each window's elements in row-major order along the last axis (a view
    where numpy's reshape gives one)."""
    n, half, c = x.shape[0], tuple(s // 2 for s in x.shape[1:-1]), x.shape[-1]
    rank = len(half)
    axes = (0, *range(1, 2 * rank, 2), 2 * rank + 1, *range(2, 2 * rank + 1, 2))
    xr = x.reshape((n, *(e for h in half for e in (h, 2)), c))
    return xr.transpose(axes).reshape((n, *half, c, 2**rank))


def _from_window_last(win):
    n, half, c = win.shape[0], win.shape[1:-2], win.shape[-2]
    rank = len(half)
    axes = (0, *range(1, 2 * rank, 2), 2 * rank + 1, *range(2, 2 * rank + 1, 2))
    return win.reshape((n, *half, c) + (2,) * rank).transpose(np.argsort(axes)).reshape(
        (n, *(2 * h for h in half), c))


def _reference_pool(x):
    win = _window_last(x)
    codes = win.argmax(axis=-1)
    return codes, np.take_along_axis(win, codes[..., None], axis=-1)[..., 0]


def _reference_gather(x, codes):
    return np.take_along_axis(_window_last(x), codes[..., None], axis=-1)[..., 0]


def _reference_scatter(values, codes):
    win = np.zeros(codes.shape + (2 ** (codes.ndim - 2),))
    np.put_along_axis(win, codes[..., None], values[..., None], axis=-1)
    return _from_window_last(win)


def _with_specials(rng, shape, share):
    """Normal values with about ``share`` of them replaced: half by small
    integers (ties), half by ±0, ±inf or a NaN of either sign."""
    x = rng.normal(size=shape)
    pick = rng.random(size=shape)
    x = np.where(pick < share / 2, rng.integers(-2, 3, size=shape).astype(np.float64), x)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    return np.where((pick >= share / 2) & (pick < share), specials[rng.integers(0, 6, size=shape)], x)


@st.composite
def _pool_cases(draw):
    """A pooling input shape of rank 1-3 with C 1-64, sometimes a rank-3 one
    with W = D = 2 (where the window-last layout is a strided view), a
    share of special values and a seed."""
    rank = draw(st.integers(1, 3))
    half = draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank))
    if rank == 3 and draw(st.booleans()):
        half[1:] = [1, 1]
    shape = (draw(st.integers(1, 2)), *(2 * h for h in half), draw(st.integers(1, 64)))
    return shape, draw(st.sampled_from((0.0, 0.05, 0.3))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_pool_cases())
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@example(((1, 2, 2, 2, 3), 0.3, 0))
@example(((2, 6, 2, 2, 1), 0.05, 1))
def test_pooling_unpooling_and_upsampling_equal_window_last_oracles_bit_for_bit(case):
    shape, share, seed = case
    rng = np.random.default_rng(seed)
    rank = len(shape) - 2
    x, g = _with_specials(rng, shape, share), _with_specials(rng, shape, share)
    pooled_shape = (shape[0], *(s // 2 for s in shape[1:-1]), shape[-1])
    gp = _with_specials(rng, pooled_shape, share)
    any_codes = rng.integers(0, 2**rank, size=pooled_shape)

    codes, values = _reference_pool(x)
    y, got_codes = ops.maxpool_with_indices(Tensor(x, requires_grad=True))
    assert got_codes.dtype == codes.dtype
    np.testing.assert_array_equal(got_codes, codes)
    np.testing.assert_array_equal(_bits(y.data), _bits(values))
    y._backward(gp)
    np.testing.assert_array_equal(_bits(y.parents[0].grad), _bits(_reference_scatter(gp, codes)))

    for c in (codes, any_codes):
        np.testing.assert_array_equal(_bits(ops._gather(g, c)), _bits(_reference_gather(g, c)))
        np.testing.assert_array_equal(_bits(ops._scatter(gp, c)),
                                      _bits(_reference_scatter(gp, c)))
        z = ops.max_unpool(Tensor(gp, requires_grad=True), c)
        np.testing.assert_array_equal(_bits(z.data), _bits(_reference_scatter(gp, c)))
        z._backward(g)
        np.testing.assert_array_equal(_bits(z.parents[0].grad), _bits(_reference_gather(g, c)))

    u = ops.upsample_nearest(Tensor(gp, requires_grad=True))
    np.testing.assert_array_equal(_bits(u.data), _bits(_from_window_last(
        np.repeat(gp[..., None], 2**rank, axis=-1))))
    u._backward(g)
    # numpy's reduce order over a contiguous window axis: a strided
    # window-last view (rank 3, W = D = 2) would be summed in sequence
    np.testing.assert_array_equal(_sum_bits(u.parents[0].grad),
                                  _sum_bits(np.ascontiguousarray(_window_last(g)).sum(axis=-1)))


def test_maxpool_values_and_indices():
    x = np.array([[1.0, 2.0, 5.0, 4.0],
                  [3.0, 0.0, 1.0, 1.0],
                  [7.0, 2.0, 2.0, 2.0],
                  [1.0, 8.0, 3.0, 9.0]]).reshape(1, 4, 4, 1)
    y, idx = ops.maxpool_with_indices(Tensor(x))
    assert np.allclose(y.data[0, :, :, 0], [[3.0, 5.0], [8.0, 9.0]])
    restored = ops.max_unpool(y, idx).data[0, :, :, 0]
    assert restored[1, 0] == 3.0 and restored[0, 2] == 5.0
    assert restored[3, 1] == 8.0 and restored[3, 3] == 9.0
    assert np.count_nonzero(restored) == 4


def test_maxpool_tie_breaks_to_first_row_major():
    x = np.full((1, 2, 2, 1), 4.0)
    y, idx = ops.maxpool_with_indices(Tensor(x))
    restored = ops.max_unpool(y, idx).data[0, :, :, 0]
    assert restored[0, 0] == 4.0
    assert np.count_nonzero(restored) == 1


def test_maxpool_rejects_odd_extent():
    with pytest.raises(ValueError):
        ops.maxpool_with_indices(rand((1, 3, 4, 1)))


def test_maxpool3d_shape():
    y, idx = ops.maxpool_with_indices(rand((2, 4, 6, 8, 3), seed=15))
    assert y.data.shape == (2, 2, 3, 4, 3)
    assert ops.max_unpool(y, idx).data.shape == (2, 4, 6, 8, 3)


def test_unpool_rejects_codes_of_another_shape():
    y, idx = ops.maxpool_with_indices(rand((1, 4, 4, 2), seed=18))
    with pytest.raises(ValueError, match="does not match codes"):
        ops.max_unpool(y, idx[..., :1])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_unpool_rejects_bad_codes_before_any_work(monkeypatch, rank):
    def no_scatter(*args):
        raise AssertionError("scattered before the codes were checked")

    monkeypatch.setattr(ops, "_scatter", no_scatter)
    shape = (1, *(2,) * rank, 3)
    x = Tensor(np.ones(shape))
    for bad in (-1, 2**rank):
        codes = np.zeros(shape, dtype=np.intp)
        codes[(0,) * (rank + 1) + (1,)] = bad
        with pytest.raises(ValueError, match=rf"codes must lie in \[0, {2**rank}\)"):
            ops.max_unpool(x, codes)
    with pytest.raises(ValueError, match="codes must be integers, got dtype float64"):
        ops.max_unpool(x, np.zeros(shape))


def test_maxpool_gradient_routes_to_argmax():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 0.5]]).reshape(1, 2, 2, 1),
               requires_grad=True)
    y, _ = ops.maxpool_with_indices(x)
    backward(sum_all(y))
    g = x.grad[0, :, :, 0]
    assert g[1, 0] == 1.0 and g.sum() == 1.0


def test_unpool_gradient_gathers():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
    y, idx = ops.maxpool_with_indices(x)
    z = ops.max_unpool(y, idx)
    backward(sum_all(mul(z, z)))
    assert x.grad is not None and x.grad.shape == x.data.shape


def test_pool_unpool_gradcheck_away_from_ties():
    # well-separated values keep the argmax stable under the probe step
    rng = np.random.default_rng(17)
    base = rng.permutation(16).astype(np.float64).reshape(1, 4, 4, 1) * 3.0
    x = Tensor(base)
    report = finite_difference_check(
        lambda x_: sum_all(mul(y := ops.max_unpool(*ops.maxpool_with_indices(x_)), y)),
        [x])
    assert report.max_rel_error < 1e-6


# ---------------------------------------------------------------------------
# upsampling


def test_upsample_nearest_repeats():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
    y = ops.upsample_nearest(x).data[0, :, :, 0]
    assert np.allclose(y, [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])


def test_upsample_gradient_is_window_sum():
    x = Tensor(np.ones((1, 2, 2, 1)), requires_grad=True)
    y = ops.upsample_nearest(x)
    backward(sum_all(y))
    assert np.allclose(x.grad, 4.0)


def test_upsample3d_gradcheck():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(1, 2, 2, 2, 2)))
    report = finite_difference_check(
        lambda x_: sum_all(mul(y := ops.upsample_nearest(x_), y)), [x])
    assert report.max_rel_error < 1e-7


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_normalizes_in_training():
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 8, 8, 2)))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    y = ops.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), training=True).data
    # the ReLU of a zero-mean, unit-variance batch
    axes = (0, 1, 2)
    z = (x.data - x.data.mean(axis=axes)) / np.sqrt(x.data.var(axis=axes) + 1e-3)
    np.testing.assert_allclose(y, np.maximum(z, 0.0), atol=1e-12)
    assert y.min() == 0.0 and 0.3 < np.mean(y > 0) < 0.7


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(loc=2.0, size=(8, 4, 4, 1)))
    running_mean = np.zeros(1)
    ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), running_mean, np.ones(1),
                   training=True)
    # momentum 0.99 pulls the zero-init mean slightly toward the batch mean
    batch_mean = x.data.mean(axis=(0, 1, 2))
    assert np.allclose(running_mean, 0.01 * batch_mean)


def test_batch_norm_inference_uses_running_stats():
    x = Tensor(np.array([3.0, -1.0]).reshape(1, 2, 1, 1))
    y = ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), np.array([1.0]),
                       np.array([4.0]), training=False).data
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
            y = ops.batch_norm(x_, g_, b_, np.zeros(2), np.ones(2), training=True)
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


def _strided(a):
    """``a``'s values in a view that is not C-contiguous: every other
    channel of a buffer twice as wide."""
    buf = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    buf[..., ::2] = a
    return buf[..., ::2]


@st.composite
def _bn_cases(draw):
    rank = draw(st.sampled_from((2, 3)))
    shape = (draw(st.integers(1, 3)), *draw(st.lists(st.integers(1, 5), min_size=rank,
                                                     max_size=rank)),
             draw(st.integers(1, 64)))
    # a strided x takes batch norm's per-channel rows through their copy
    return shape, draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_bn_cases())
def test_batch_norm_relu_matches_unfused_oracle_bit_for_bit(case):
    shape, training, strided, seed = case
    rng = np.random.default_rng(seed)
    c = shape[-1]
    x = rng.normal(loc=1.0, scale=2.0, size=shape)
    x = Tensor(_strided(x) if strided else x, requires_grad=True)
    gamma = Tensor(rng.normal(size=c), requires_grad=True)
    beta = Tensor(rng.normal(size=c), requires_grad=True)
    g = rng.normal(size=shape)
    running_mean, running_var = np.arange(c) * 0.1, 1.0 + np.arange(c) * 0.5
    ref_running = types.SimpleNamespace(mean=running_mean.copy(), var=running_var.copy())
    want = _unfused_bn_relu(x.data, gamma.data, beta.data, ref_running, training, g)
    y = ops.batch_norm(x, gamma, beta, running_mean, running_var, training)
    backward(sum_all(mul(y, Tensor(g))))
    for got, ref in zip((y.data, x.grad, gamma.grad, beta.grad), want):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(running_mean, ref_running.mean)
    np.testing.assert_array_equal(running_var, ref_running.var)


# the patch sets the same value for every example, so one per test is enough
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_bn_cases())
def test_batch_norm_var_from_centred_input_equals_numpy_var(monkeypatch, case):
    # with momentum 0 the running averages hold the batch statistics themselves
    monkeypatch.setattr(ops, "BN_MOMENTUM", 0.0)
    shape, _, strided, seed = case
    x = np.random.default_rng(seed).normal(loc=3.0, scale=5.0, size=shape)
    if strided:
        x = _strided(x)
    axes = tuple(range(x.ndim - 1))
    c = shape[-1]
    running_mean, running_var = np.zeros(c), np.ones(c)
    ops.batch_norm(Tensor(x), Tensor(np.ones(c)), Tensor(np.zeros(c)),
                   running_mean, running_var, training=True)
    np.testing.assert_array_equal(running_mean, x.mean(axis=axes))
    np.testing.assert_array_equal(running_var, x.var(axis=axes))


@st.composite
def _per_channel_cases(draw):
    """An array of rank 1-5 with C 1-64, C-contiguous or strided, and 1-4
    steps of an arithmetic ufunc with a per-channel vector."""
    ndim, c = draw(st.integers(1, 5)), draw(st.integers(1, 64))
    shape = (*draw(st.lists(st.integers(1, 6), min_size=ndim - 1, max_size=ndim - 1)), c)
    ufuncs = draw(st.lists(st.sampled_from((np.add, np.subtract, np.multiply)),
                           min_size=1, max_size=4))
    return shape, ufuncs, draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _sum_bits(a):
    """The bits of a sum, every NaN as one pattern: IEEE 754 leaves open
    which NaN a sum of two NaNs returns, and numpy's own add returns either
    one, by the element's place in its vector loop."""
    return _bits(np.where(np.isnan(a), np.nan, a))


@settings(max_examples=100, deadline=None)
@given(_per_channel_cases())
def test_per_channel_rows_equal_plain_broadcasting_bit_for_bit(case):
    shape, ufuncs, strided, inplace, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if strided:
        x = _strided(x)
    steps = [(ufunc, rng.normal(size=shape[-1])) for ufunc in ufuncs]
    want = x.copy()
    for ufunc, v in steps:
        ufunc(want, v, out=want)
    before = x.copy()
    if inplace and not x.flags.c_contiguous:  # strided, unless x holds one element
        # the rows would be a copy, so the in-place writes would not reach x
        with pytest.raises(ValueError, match="C-contiguous"):
            ops._per_channel(x, *steps, inplace=True)
        np.testing.assert_array_equal(_bits(x), _bits(before))
        return
    got = ops._per_channel(x, *steps, inplace=inplace)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    if inplace:
        np.testing.assert_array_equal(_bits(x), _bits(want))
    else:
        assert not np.shares_memory(got, x)
        np.testing.assert_array_equal(_bits(x), _bits(before))


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
    assert len(outer) == 3 and len(inner) == 1
