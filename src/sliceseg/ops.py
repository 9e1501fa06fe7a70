"""Structured network operations: convolution, pooling, normalisation.

All ops take channels-last batched tensors: rank-2 data is (N, H, W, C)
and rank-3 data is (N, H, W, D, C). Kernels are stored spatial-first,
(k1, ..., kr, Cin, Cout). Convolution is evaluated by gathering windows
into a column matrix and multiplying (im2col). The graph keeps only the
unpadded input: backward re-pads it and regathers its windows for the
weight gradient rather than keeping the padded copy or the column matrix
alive, and gets the input gradient as a correlation of the output
gradient, zero padded by k-1-p per axis, with the spatially flipped kernel.

Both products index one read-only view of the padded input's windows,
(N, *out, *kernel, C), whose reshape is the column matrix, and copy it in
blocks: fixed indices on leading axes and balanced spans of the next one,
the first whose inner extent fits the block budget. So each block is a
row-major run of the array it partitions, and each block's product is
written straight into its own rows of the output through
``matmul(out=...)``, with no product temporary. The forward and the input
gradient partition the (N, *out) rows into blocks sized for the cache and
for BLAS's path (``_row_blocks``; the measurements behind the sizes are at
the budget constants): near ``_ROW_TARGET``, never above
``_COLUMN_BUDGET``, and, when a product splits, every block above BLAS's
small-matrix bound ``_SMALL_GEMM_MACS``. Above that bound every output row
is the same dot product as in one whole product, so the bits do not
change. The weight gradient sums over every output row, so splitting the
rows would change its summation order; it partitions the column axes
(*kernel, channel) in blocks of at most ``_COLUMN_BUDGET`` instead, and
each block gives its own rows of the weight gradient. Padding is a zeroed
array with the input written inside. The bias gradient, like batch norm's
statistics and gradients, is a sum over positions by
``autodiff._channel_sum``: einsum in numpy's reduce order, so the same
bits at a fraction of the reduce's per-position cost. The per-channel
arithmetic, batch norm's centring, scales and shift in both passes and the
conv bias add, runs on long rows by ``_per_channel``: whole positions
viewed as rows with the channel vector laid out along one row, so numpy's
inner loop runs over hundreds of elements rather than C per position. Each
element gets the same IEEE operation on the same operands as under
broadcasting, so the bits do not change either.

Pooling and the upsample backward share one window-first layout of the
2 x ... x 2 windows, (2**rank, N, *spatial/2, C), C-contiguous: row k holds
element k, in row-major window order, of every window. A trailing window
axis of 2-8 elements would run numpy's inner loop once per window; here
every per-window step is one elementwise op over a whole row. Pooling takes
``autodiff._first_max`` over the rows, the codes and values of argmax with
its tie rules; the upsample backward sums the rows by ``autodiff._row_sum``
in the order numpy's reduce adds a contiguous trailing axis, so the bits
match a trailing-axis ``argmax`` and a ``sum`` over a C-contiguous
window-last array. An adjoint gather/scatter pair indexes the
full-resolution array at each window's origin plus its code's offset: the
max-pool backward and unpooling scatter straight into a zeroed output
there, the unpool backward gathers from there, and each is the other's
adjoint.
"""
from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autodiff import Tensor, _channel_sum, _first_max, _node, _row_sum, accumulate_grad

# Column block budgets, measured on a 2-vCPU Xeon (2 MiB L2 per core,
# OpenBLAS 0.3.31 SkylakeX kernels, 1 and 2 threads):
# - Forward and input-gradient row blocks aim at _ROW_TARGET: a 4 MiB block
#   plus BLAS's packed copy of it overflows L2. At one thread the forwards
#   of (8,32,32,5,16)->16, (1,32,32,16,16)->16 and (8,32,32,48)->16 took
#   24.9, 12.1 and 7.7 ms with 4 MiB blocks and 15.7, 9.5 and 4.8 ms with
#   these (medians of 5).
# - OpenBLAS runs an M x K by K x N product with M*N*K <= _SMALL_GEMM_MACS
#   in its small-matrix kernel, which rounds differently, so a block's rows
#   equal those of a larger product only above that bound (K=108, N=4: rows
#   differ at M <= 2314 and match from 2315; K=432, N=16: differ at
#   M <= 144, match from 145). A split keeps every block above it: balanced
#   spans keep each block above a third of the budget, so the budget is at
#   least three times the bound's bytes.
# - _COLUMN_BUDGET caps every block, so products of N <= 5 columns (gemv at
#   N = 1 among them) keep the cap's partition. Weight-gradient column
#   blocks have no small-matrix floor, so a narrow one splits below the
#   bound: at f=4, kernel columns (3,3,16) over 12,800 rows give 819,200-MAC
#   blocks, which differ from one whole product by up to 1.3e-12. Narrower
#   blocks were slower, since each repacks the whole output gradient.
_COLUMN_BUDGET = 4 * 2**20
_ROW_TARGET = 2**20
_SMALL_GEMM_MACS = 10**6

# Optional cost trace, the one record of what a forward pass did: while
# trace lists are open, each structured op appends its kind, MACs and
# output shape per application to every one of them.
_trace_ctx = threading.local()


@dataclass
class OpCost:
    kind: str
    macs: int
    shape: tuple[int, ...]


@contextlib.contextmanager
def cost_trace(records: list):
    """Record into ``records`` for the duration of the block. Traces nest:
    every open trace receives every record, and the open set is restored
    on exit."""
    outer = getattr(_trace_ctx, "open", ())
    _trace_ctx.open = (*outer, records)
    try:
        yield records
    finally:
        _trace_ctx.open = outer


def _record(kind: str, macs: int, shape: tuple[int, ...]) -> None:
    for records in getattr(_trace_ctx, "open", ()):
        records.append(OpCost(kind, int(macs), shape))


def _pad(x: np.ndarray, pads: tuple[int, ...]) -> np.ndarray:
    """``x`` (N, *spatial, C) zero padded by ``pads[i]`` on both sides of
    each spatial axis; ``x`` itself when every pad is zero."""
    if not any(pads):
        return x
    xp = np.zeros((x.shape[0], *(s + 2 * p for s, p in zip(x.shape[1:-1], pads)), x.shape[-1]),
                  dtype=x.dtype)
    xp[(slice(None), *(slice(p, p + s) for s, p in zip(x.shape[1:-1], pads)))] = x
    return xp


def _per_channel(x: np.ndarray, *steps: tuple[np.ufunc, np.ndarray],
                 inplace: bool = False) -> np.ndarray:
    """``x`` (..., C) after each ``(ufunc, v)`` step in turn, ``ufunc(x, v)``
    with the per-channel vector ``v`` broadcast over the channel axis: on a
    new array, or on ``x`` itself when ``inplace``, which needs a
    C-contiguous ``x`` (a strided one raises ``ValueError``: its rows would
    be a copy, so the writes would not reach ``x``).

    Broadcasting a (C,) vector runs numpy's inner loop once per position
    over C elements. Here ``x`` is viewed as rows of whole positions, every
    axis after the first spatial one (so at least one full last-spatial-axis
    row), and ``v`` is laid out along one such row, so the inner loop runs
    over the row. Each element still gets the same IEEE operation with the
    same operands, so the bits are those of plain broadcasting."""
    if inplace and not x.flags.c_contiguous:
        raise ValueError(f"in-place per-channel steps need a C-contiguous array, got "
                         f"strides {x.strides} for shape {x.shape}")
    lead = min(2, x.ndim - 1)
    shape = (math.prod(x.shape[:lead]), math.prod(x.shape[lead:]))
    rows = np.ascontiguousarray(x).reshape(shape)
    out = rows if inplace else None
    for ufunc, v in steps:
        row = np.empty(shape[1], dtype=v.dtype)
        row.reshape(-1, x.shape[-1])[...] = v
        rows = out = ufunc(rows, row, out=out)
    return rows.reshape(x.shape)


def _conv_windows(xp: np.ndarray, kernel: tuple[int, ...]) -> np.ndarray:
    """The sliding windows of ``kernel`` over the spatial axes of a padded
    (N, *spatial, C) array, as a read-only (N, *out, *kernel, C) view.

    Reshaped to (N * prod(out), prod(kernel) * C) it is the im2col column
    matrix: rows over (n, *out) and columns over (*kernel offset, c), both
    row-major. Indexing its output axes gives a block of rows, and indexing
    its (*kernel, c) axes a contiguous block of columns."""
    rank = len(kernel)
    spatial, strides = xp.shape[1:1 + rank], xp.strides[1:1 + rank]
    out = tuple(s - k + 1 for s, k in zip(spatial, kernel))
    if min(out) < 1:
        # as_strided would read out of bounds without an error
        raise ValueError(f"window {kernel} is larger than input {xp.shape}")
    return as_strided(xp, (xp.shape[0], *out, *kernel, xp.shape[-1]),
                      (xp.strides[0], *strides, *strides, xp.strides[-1]), writeable=False)


@functools.cache
def _plan(extents: tuple[int, ...], unit_bytes: int, budget: int) -> tuple[tuple, ...]:
    """A partition of an array of ``extents`` at ``unit_bytes`` per element
    into blocks within ``budget`` bytes, as index tuples in order. Blocks
    fix one index on each axis before a leading axis, the first whose one
    index with all of the axes after it fits (else the last), and take as
    few balanced spans of it as fit, so each block is one row-major run of
    the array. Balanced spans leave no tiny tail block: every block of a
    split holds more than a third of the budget. Longer spans come first,
    so each later block fits in the heap space an earlier one freed. A
    pure function of its arguments, so each conv shape plans once per
    process."""
    axis = next((i for i in range(len(extents) - 1)
                 if math.prod(extents[i + 1:]) * unit_bytes <= budget), len(extents) - 1)
    span_bytes = math.prod(extents[axis + 1:]) * unit_bytes
    count = -(-extents[axis] // max(1, budget // span_bytes))
    q, r = divmod(extents[axis], count)
    bounds = [i * q + min(i, r) for i in range(count + 1)]
    return tuple((*lead, slice(a, b)) for lead in np.ndindex(*extents[:axis])
                 for a, b in zip(bounds[:-1], bounds[1:]))


def _row_blocks(rows: tuple[int, ...], k: int, cols: int, itemsize: int) -> tuple[tuple, ...]:
    """The blocks of the ``rows`` extents of an (M, k) column matrix times
    a (k, cols) matrix: about ``_ROW_TARGET`` bytes, each block of a split
    above ``_SMALL_GEMM_MACS`` multiply-adds, none above ``_COLUMN_BUDGET``."""
    # balanced spans keep each block of a split above a third of the budget
    floor = -(-3 * _SMALL_GEMM_MACS * itemsize // cols)
    return _plan(rows, k * itemsize, min(_COLUMN_BUDGET, max(_ROW_TARGET, floor)))


def _im2col_matmul(win: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """The column matrix of the window view ``win`` (see
    :func:`_conv_windows`) times ``wmat``, as an (N, *out, cols) array,
    built in blocks of its rows: each block is a row-major run of the
    (N, *out) rows, so its product goes straight into its rows of the
    output."""
    n, out, (k, cols) = win.shape[0], win.shape[1:win.ndim // 2], wmat.shape
    y = np.empty((n, *out, cols))
    for index in _row_blocks((n, *out), k, cols, win.itemsize):
        np.matmul(win[index].reshape(-1, k), wmat, out=y[index].reshape(-1, cols, copy=False))
    return y


def _weight_grad(win: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    """The transposed column matrix of the window view ``win`` times
    ``gmat``, as a (*kernel, C, cols) array, built in blocks of columns: a
    block of the (*kernel, c) axes gives the same rows of the product,
    summed over the output rows in the same order, and its product goes
    straight into those rows."""
    rows, head, cols = gmat.shape[0], win.ndim // 2, gmat.shape[1]
    extents = win.shape[head:]
    dw = np.empty((*extents, cols))
    for index in _plan(extents, rows * win.itemsize, _COLUMN_BUDGET):
        block = win[(slice(None),) * head + index].reshape(rows, -1)
        np.matmul(block.T, gmat, out=dw[index].reshape(-1, cols, copy=False))
    return dw


def conv_forward(x: Tensor, w: Tensor, b: Tensor | None,
                 padded_axes: tuple[bool, ...] | None = None) -> Tensor:
    """N-dimensional cross-correlation with per-axis same/valid padding.

    ``padded_axes`` selects, per spatial axis, whether that axis keeps its
    extent (zero padding by half the kernel) or shrinks by ``k - 1``.
    Defaults to padding every axis.
    """
    if w.data.ndim not in (4, 5):
        raise ValueError(f"kernel must have 4 or 5 axes, got shape {w.data.shape}")
    rank = w.data.ndim - 2
    kernel = w.data.shape[:rank]
    cin, cout = w.data.shape[rank], w.data.shape[rank + 1]
    if x.data.ndim != rank + 2:
        raise ValueError(f"conv rank {rank} expects {rank + 2}D input, got {x.data.ndim}D")
    if x.data.shape[-1] != cin:
        raise ValueError(f"conv input has {x.data.shape[-1]} channels, kernel expects {cin}")
    extents = (x.data.shape[0], cin, cout, *kernel)
    if 0 in extents:
        names = ("batch", "input channel", "filter", *(f"kernel axis {i}" for i in range(rank)))
        raise ValueError(f"conv {names[extents.index(0)]} axis is empty: input {x.data.shape}, "
                         f"kernel {w.data.shape}")
    if padded_axes is None:
        padded_axes = (True,) * rank
    if len(padded_axes) != rank:
        raise ValueError("padded_axes length must match spatial rank")

    pads = tuple(k // 2 if p else 0 for k, p in zip(kernel, padded_axes))
    out_spatial = tuple(s + 2 * p - k + 1
                        for s, p, k in zip(x.data.shape[1:1 + rank], pads, kernel))
    if any(s <= 0 for s in out_spatial):
        raise ValueError(
            f"conv output extent is non-positive: input {x.data.shape[1:1 + rank]}, "
            f"kernel {kernel}, padded {padded_axes}")

    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"bias shape {b.data.shape} does not match {cout} filters")

    y = _im2col_matmul(_conv_windows(_pad(x.data, pads), kernel), w.data.reshape(-1, cout))
    if b is not None:
        _per_channel(y, (np.add, b.data), inplace=True)
    n = x.data.shape[0]
    _record(f"conv{rank}d", math.prod(out_spatial) * n * math.prod(kernel) * cin * cout, y.shape)

    def bwd(g):
        gmat = g.reshape(-1, cout)
        if w.requires_grad:
            accumulate_grad(w, _weight_grad(_conv_windows(_pad(x.data, pads), kernel), gmat))
        if b is not None and b.requires_grad:
            accumulate_grad(b, _channel_sum(gmat))
        if x.requires_grad:
            # k-1-p padding makes the correlation come out at x's shape
            gpads = tuple(k - 1 - p for k, p in zip(kernel, pads))
            wflip = np.flip(w.data, tuple(range(rank))).swapaxes(rank, rank + 1)
            accumulate_grad(x, _im2col_matmul(_conv_windows(_pad(g, gpads), kernel),
                                              wflip.reshape(-1, cin)))

    parents = (x, w) if b is None else (x, w, b)
    return _node(y, parents, bwd)


def _windows(x: np.ndarray) -> np.ndarray:
    """(N, *spatial, C) -> (2**rank, N, *spatial/2, C), C-contiguous: row k
    holds element k, in row-major order, of every 2 x ... x 2 window."""
    n, half, c = x.shape[0], tuple(s // 2 for s in x.shape[1:-1]), x.shape[-1]
    rank = len(half)
    xr = x.reshape((n, *(e for h in half for e in (h, 2)), c))
    # (N, s1, 2, ..., sr, 2, C) -> (2, ..., 2, N, s1, ..., sr, C)
    axes = (*range(2, 2 * rank + 1, 2), 0, *range(1, 2 * rank, 2), 2 * rank + 1)
    return np.ascontiguousarray(xr.transpose(axes)).reshape((2 ** rank, n, *half, c))


@functools.cache
def _window_steps(pooled: tuple[int, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """For the C-contiguous (N, *spatial, C) array that pools to ``pooled``
    (N, *spatial/2, C): the flat offset of each element of a 2 x ... x 2
    window from the window's origin, in row-major window order, and per
    pooled axis the flat step to each window origin along it, shaped to
    broadcast over the pooled shape."""
    full = (pooled[0], *(2 * h for h in pooled[1:-1]), pooled[-1])
    steps = [math.prod(full[i + 1:]) for i in range(len(full))]
    offsets = np.zeros(1, dtype=np.intp)
    for s in steps[1:-1]:
        offsets = np.add.outer(offsets, (0, s)).ravel()
    hops = (steps[0], *(2 * s for s in steps[1:-1]), steps[-1])
    origins = tuple((np.arange(e) * hop).reshape((-1,) + (1,) * (len(pooled) - 1 - i))
                    for i, (e, hop) in enumerate(zip(pooled, hops)))
    for a in (offsets, *origins):
        a.flags.writeable = False  # cached, so shared by every later call
    return offsets, origins


def _window_index(codes: np.ndarray) -> np.ndarray:
    """Flat indices into the C-contiguous array that pools to ``codes``'
    shape of each 2 x ... x 2 window's element at its row-major offset in
    ``codes``: the window's origin plus the code's offset from it."""
    offsets, origins = _window_steps(codes.shape)
    index = offsets[codes]
    for origin in origins:
        index += origin
    return index


def _gather(x: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The element of each window of ``x`` at its row-major offset in
    ``codes``, an integer array of the pooled shape."""
    return np.take(x, _window_index(codes))


def _scatter(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_gather`: each value at its offset in ``codes``
    inside its window, zero elsewhere, put straight into a zeroed output."""
    y = np.zeros((codes.shape[0], *(2 * h for h in codes.shape[1:-1]), codes.shape[-1]))
    np.put(y, _window_index(codes), values)
    return y


def maxpool_with_indices(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """Max pooling with window and stride 2 per spatial axis, of rank
    ``x.ndim - 2``. Ties resolve to the first maximum in row-major window
    order. Returns the pooled tensor and its argmax codes for
    :func:`max_unpool`: an integer array of the pooled shape whose entry
    ``codes[n, *coarse, c]`` is the row-major offset of the maximum inside
    its pooling window."""
    rank = x.data.ndim - 2
    spatial = x.data.shape[1:-1]
    if any(s % 2 for s in spatial):
        raise ValueError(f"maxpool requires even spatial extents, got {spatial}")

    codes, pooled = _first_max(_windows(x.data))
    _record(f"maxpool{rank}d", 0, pooled.shape)

    def bwd(g):
        accumulate_grad(x, _scatter(g, codes))

    return _node(pooled, (x,), bwd), codes


def max_unpool(x: Tensor, codes: np.ndarray) -> Tensor:
    """Scatter pooled activations back to the argmax positions in the
    ``codes`` returned by :func:`maxpool_with_indices`; every other
    position is zero. The spatial rank is ``codes.ndim - 2`` and the
    output doubles each spatial extent of ``codes``, which is the pooled
    input's shape because pooling requires even extents."""
    if x.data.shape != codes.shape:
        raise ValueError(f"unpool input shape {x.data.shape} does not match codes {codes.shape}")
    rank = codes.ndim - 2
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"unpool codes must be integers, got dtype {codes.dtype}")
    # a code outside its window would land in a neighbouring one
    if codes.size and (codes.min() < 0 or codes.max() >= 2 ** rank):
        raise ValueError(f"unpool codes must lie in [0, {2 ** rank}), got values in "
                         f"[{codes.min()}, {codes.max()}]")
    y = _scatter(x.data, codes)
    _record(f"max_unpool{rank}d", 0, y.shape)

    def bwd(g):
        accumulate_grad(x, _gather(g, codes))

    return _node(y, (x,), bwd)


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour upsampling by 2 per spatial axis, of rank
    ``x.ndim - 2`` (parameter free)."""
    rank = x.data.ndim - 2
    # np.repeat per axis: transposing a broadcast out of the window-first
    # layout was 2-5x slower at C <= 8
    y = x.data
    for axis in range(1, 1 + rank):
        y = np.repeat(y, 2, axis=axis)
    _record(f"upsample{rank}d", 0, y.shape)

    def bwd(g):
        accumulate_grad(x, _row_sum(_windows(g)))

    return _node(y, (x,), bwd)


# Batch norm constants: running-average momentum and variance offset.
BN_MOMENTUM = 0.99
BN_EPSILON = 1e-3


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Batch normalisation over all axes except the trailing channel axis,
    followed by ReLU, as one graph node.

    Training mode normalises with batch statistics and folds them into
    ``running_mean`` and ``running_var`` in place; inference mode uses
    those averages only. Both modes run the same in-place steps, in the
    elementwise order of a separate batch norm followed by
    ``y * (y > 0)``, so results match that pair bit for bit. The node
    keeps the ReLU mask, ``mean`` and ``inv_std``; backward recomputes
    ``xhat = (x - mean) * inv_std`` from ``x`` in both modes. Every sum
    over positions, forward and backward, is one ``_channel_sum`` call,
    which needs no product temporary and adds in numpy's reduce order.
    Every per-channel step (``x - mean``, the ``inv_std`` and ``gamma``
    scales, the shifts) runs on long rows by ``_per_channel``, the same
    operation per element as broadcasting, so the bits are the same too.
    """
    c = x.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError("batch norm scale/offset must have one value per channel")
    m = math.prod(x.data.shape[:-1])
    if m == 0:
        raise ValueError("batch norm requires a non-empty batch")

    if training:
        # numpy's mean and var divide a reduce's sum by m, and _channel_sum
        # adds in that reduce's order, so these equal x.mean and x.var bit for bit
        mean = _channel_sum(x.data) / m
        y = _per_channel(x.data, (np.subtract, mean))
        var = _channel_sum(y, y) / m
        running_mean[:] = BN_MOMENTUM * running_mean + (1.0 - BN_MOMENTUM) * mean
        running_var[:] = BN_MOMENTUM * running_var + (1.0 - BN_MOMENTUM) * var
    else:
        mean = running_mean.copy()  # training passes update it in place
        var = running_var
        y = _per_channel(x.data, (np.subtract, mean))
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    _per_channel(y, (np.multiply, inv_std), (np.multiply, gamma.data), (np.add, beta.data),
                 inplace=True)
    mask = y > 0
    y *= mask
    _record("batch_norm", 0, y.shape)

    def bwd(g):
        g = g * mask
        xhat = _per_channel(x.data, (np.subtract, mean), (np.multiply, inv_std))
        if gamma.requires_grad:
            accumulate_grad(gamma, _channel_sum(g, xhat))
        if beta.requires_grad:
            accumulate_grad(beta, _channel_sum(g))
        if x.requires_grad:
            if training:
                # (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat)) * inv_std, in place
                gx = _per_channel(g, (np.multiply, gamma.data))
                shift, scale = _channel_sum(gx) / m, _channel_sum(gx, xhat) / m
                _per_channel(gx, (np.subtract, shift), inplace=True)
                _per_channel(xhat, (np.multiply, scale), inplace=True)
                gx -= xhat
                _per_channel(gx, (np.multiply, inv_std), inplace=True)
            else:
                gx = _per_channel(g, (np.multiply, gamma.data), (np.multiply, inv_std))
            accumulate_grad(x, gx)

    return _node(y, (x, gamma, beta), bwd)
