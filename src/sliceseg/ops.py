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
(N, *out, *kernel, C), whose reshape is the column matrix, and copy it
in blocks of at most ``_COLUMN_BUDGET`` bytes: fixed indices on leading
axes and balanced spans of the next one, the first whose inner extent
fits. So each block is a row-major run of the array it partitions, and
each block's product is written straight into its own rows of the output
through ``matmul(out=...)``, with no product temporary. The forward and
the input gradient partition the (N, *out) rows; every output row is still
the same dot product as in one whole product, so the bits do not change.
The weight gradient sums over every output row, so splitting the rows
would change its summation order; it partitions the column axes
(*kernel, channel) instead, and each block gives its own rows of the
weight gradient. Padding is a zeroed array with the input written
inside. The bias gradient, like batch norm's statistics and gradients,
is a sum over positions by ``autodiff._channel_sum``: einsum in numpy's
reduce order, so the same bits at a fraction of the reduce's
per-position cost. The per-channel arithmetic, batch norm's centring,
scales and shift in both passes and the conv bias add, runs on long rows
by ``_per_channel``: whole positions viewed as rows with the channel
vector laid out along one row, so numpy's inner loop runs over hundreds
of elements rather than C per position. Each element gets the same IEEE
operation on the same operands as under broadcasting, so the bits do not
change either.

Pooling, unpooling and upsampling share one window-first layout of the
2 x ... x 2 windows, (2**rank, N, *spatial/2, C), C-contiguous: row k holds
element k, in row-major window order, of every window. A trailing window
axis of 2-8 elements would run numpy's inner loop once per window; here
every per-window step is one elementwise op over a whole row. Pooling takes
``autodiff._first_max`` over the rows, the codes and values of argmax with
its tie rules; the upsample backward sums the rows by ``autodiff._row_sum``
in the order numpy's reduce adds a trailing axis, so the bits match a
trailing-axis ``argmax`` and ``sum``. An adjoint gather/scatter pair indexes
the layout at the flat positions ``code * M + window``: pooling gathers at
the argmax codes, unpooling scatters to them, and each is the other's
backward.
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

# Byte budget for one block of columns. On a 2-vCPU Xeon (OpenBLAS 0.3.31,
# one thread) predict_volume ran about 30% faster with 4 MiB blocks than with
# 8 or 32 MiB ones, at the same bits. The margin is thin: at 3.25 MiB the
# narrow products of the 4-filter convs in tests/test_ops.py's BLOCKED_CONVS
# round differently (3.5 MiB and up keep their bits at 1 and 2 BLAS threads),
# so do not go lower without that bit check.
_COLUMN_BUDGET = 4 * 2**20

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


def _spatial_rank(w: Tensor) -> int:
    if w.data.ndim == 4:
        return 2
    if w.data.ndim == 5:
        return 3
    raise ValueError(f"kernel must have 4 or 5 axes, got shape {w.data.shape}")


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
    new array, or on ``x`` itself when ``inplace``.

    Broadcasting a (C,) vector runs numpy's inner loop once per position
    over C elements. Here ``x`` is viewed as rows of whole positions, every
    axis after the first spatial one (so at least one full last-spatial-axis
    row), and ``v`` is laid out along one such row, so the inner loop runs
    over the row. Each element still gets the same IEEE operation with the
    same operands, so the bits are those of plain broadcasting."""
    lead = min(2, x.ndim - 1)
    shape = (math.prod(x.shape[:lead]), math.prod(x.shape[lead:]))
    if inplace and not x.flags.c_contiguous:
        # the rows would be a copy, so the writes would not reach x
        for ufunc, v in steps:
            ufunc(x, v, out=x)
        return x
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


def _blocks(extents: tuple[int, ...], unit_bytes: int) -> tuple[tuple, ...]:
    """A partition of an array of ``extents`` at ``unit_bytes`` per element
    into blocks within the column budget, as index tuples in order. Blocks
    fix one index on each axis before a leading axis, the first whose one
    index with all of the axes after it fits (else the last), and take as
    few balanced spans of it as fit, so each block is one row-major run of
    the array. Balanced spans leave no tiny tail block, which BLAS may
    route through a small-matrix or gemv path with other rounding; longer
    spans come first, so each later block fits in the heap space an earlier
    one freed."""
    return _plan(extents, unit_bytes, _COLUMN_BUDGET)


@functools.cache
def _plan(extents: tuple[int, ...], unit_bytes: int, budget: int) -> tuple[tuple, ...]:
    # a pure function of its arguments, so each conv shape plans once per process
    axis = next((i for i in range(len(extents) - 1)
                 if math.prod(extents[i + 1:]) * unit_bytes <= budget), len(extents) - 1)
    span_bytes = math.prod(extents[axis + 1:]) * unit_bytes
    count = -(-extents[axis] // max(1, budget // span_bytes))
    q, r = divmod(extents[axis], count)
    bounds = [i * q + min(i, r) for i in range(count + 1)]
    return tuple((*lead, slice(a, b)) for lead in np.ndindex(*extents[:axis])
                 for a, b in zip(bounds[:-1], bounds[1:]))


def _im2col_matmul(win: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """The column matrix of the window view ``win`` (see
    :func:`_conv_windows`) times ``wmat``, as an (N, *out, cols) array,
    built in blocks of its rows: each block is a row-major run of the
    (N, *out) rows, so its product goes straight into its rows of the
    output."""
    n, out, (k, cols) = win.shape[0], win.shape[1:win.ndim // 2], wmat.shape
    y = np.empty((n, *out, cols))
    for index in _blocks((n, *out), k * win.itemsize):
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
    for index in _blocks(extents, rows * win.itemsize):
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
    rank = _spatial_rank(w)
    kernel = w.data.shape[:rank]
    cin, cout = w.data.shape[rank], w.data.shape[rank + 1]
    if x.data.ndim != rank + 2:
        raise ValueError(f"conv rank {rank} expects {rank + 2}D input, got {x.data.ndim}D")
    if x.data.shape[-1] != cin:
        raise ValueError(f"conv input has {x.data.shape[-1]} channels, kernel expects {cin}")
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
    return _node(y, parents, f"conv{rank}d", bwd)


def _window_axes(rank: int) -> tuple[int, ...]:
    """The axis order taking (N, s1, 2, ..., sr, 2, C) to (2, ..., 2, N, s1, ..., sr, C)."""
    return (*range(2, 2 * rank + 1, 2), 0, *range(1, 2 * rank, 2), 2 * rank + 1)


def _windows(x: np.ndarray) -> np.ndarray:
    """(N, *spatial, C) -> (2**rank, N, *spatial/2, C), C-contiguous: row k
    holds element k, in row-major order, of every 2 x ... x 2 window."""
    n, half, c = x.shape[0], tuple(s // 2 for s in x.shape[1:-1]), x.shape[-1]
    xr = x.reshape((n, *(e for h in half for e in (h, 2)), c))
    return np.ascontiguousarray(xr.transpose(_window_axes(len(half)))).reshape(
        (2 ** len(half), n, *half, c))


def _unwindows(win: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_windows`: (2**rank, N, *half, C) -> (N, *2*half, C)."""
    n, half, c = win.shape[1], win.shape[2:-1], win.shape[-1]
    wr = win.reshape((2,) * len(half) + (n, *half, c))
    return wr.transpose(np.argsort(_window_axes(len(half)))).reshape(
        (n, *(2 * h for h in half), c))


def _flat(codes: np.ndarray) -> np.ndarray:
    """Each window's element at its code, as a flat index into
    :func:`_windows`' layout: ``codes * M + position`` over M windows."""
    return codes * codes.size + np.arange(codes.size).reshape(codes.shape)


def _gather(x: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The element of each window of ``x`` at its row-major offset in
    ``codes``, an integer array of the pooled shape."""
    return np.take(_windows(x), _flat(codes))


def _scatter(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_gather`: each value at its offset in ``codes``
    inside its window, zero elsewhere."""
    win = np.zeros((2 ** (codes.ndim - 2), *codes.shape))
    np.put(win, _flat(codes), values)
    return _unwindows(win)


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

    return _node(pooled, (x,), f"maxpool{rank}d", bwd), codes


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

    return _node(y, (x,), f"max_unpool{rank}d", bwd)


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour upsampling by 2 per spatial axis, of rank
    ``x.ndim - 2`` (parameter free)."""
    rank = x.data.ndim - 2
    # np.repeat per axis: building it as _unwindows of a broadcast was 2-5x
    # slower at C <= 8
    y = x.data
    for axis in range(1, 1 + rank):
        y = np.repeat(y, 2, axis=axis)
    _record(f"upsample{rank}d", 0, y.shape)
    # The backward's window sums match numpy's .sum(axis=-1) over the
    # window-last layout (N, *half, C, 2**rank). For a rank-3 gradient with
    # W = D = 2 and C > 1 that layout is a view with window stride C, which
    # numpy sums in sequence rather than pairwise.
    in_sequence = rank == 3 and y.shape[2:4] == (2, 2) and y.shape[-1] > 1

    def bwd(g):
        win = _windows(g)
        accumulate_grad(x, sum(win) if in_sequence else _row_sum(win))

    return _node(y, (x,), f"upsample{rank}d", bwd)


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

    return _node(y, (x, gamma, beta), "batch_norm", bwd)
