"""Structured network operations: convolution, pooling, normalisation.

All ops take channels-last batched tensors: rank-2 data is (N, H, W, C)
and rank-3 data is (N, H, W, D, C). Kernels are stored spatial-first,
(k1, ..., kr, Cin, Cout). Convolution is evaluated by gathering windows
into a column matrix and multiplying (im2col). The graph keeps only the
unpadded input: backward re-pads it and regathers its windows for the
weight gradient rather than keeping the padded copy or the column matrix
alive, and gets the input gradient as a correlation of the output
gradient, zero padded by k-1-p per axis, with the spatially flipped kernel.
"""
from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor, _node, accumulate_grad

# Optional cost trace, the one record of what a forward pass did: while a
# trace list is installed, each structured op appends its kind, MACs and
# output shape per application.
_trace_ctx = threading.local()


@dataclass
class OpCost:
    kind: str
    macs: int
    shape: tuple[int, ...]


@contextlib.contextmanager
def cost_trace(records: list):
    """Record into ``records`` for the duration of the block; the enclosing
    trace, if any, receives nothing meanwhile and is restored on exit."""
    outer = getattr(_trace_ctx, "records", None)
    _trace_ctx.records = records
    try:
        yield records
    finally:
        _trace_ctx.records = outer


def _record(kind: str, macs: int, shape: tuple[int, ...]) -> None:
    records = getattr(_trace_ctx, "records", None)
    if records is not None:
        records.append(OpCost(kind, int(macs), shape))


def _spatial_rank(w: Tensor) -> int:
    if w.data.ndim == 4:
        return 2
    if w.data.ndim == 5:
        return 3
    raise ValueError(f"kernel must have 4 or 5 axes, got shape {w.data.shape}")


def _im2col(xp: np.ndarray, kernel: tuple[int, ...]) -> np.ndarray:
    """Gather sliding windows of ``kernel`` over the spatial axes of a
    padded (N, *spatial, C) array into (N * prod(out), prod(kernel) * C)."""
    rank = len(kernel)
    axes = tuple(range(1, 1 + rank))
    win = sliding_window_view(xp, kernel, axis=axes)
    # win: (N, *out_spatial, C, *kernel) -> (N, *out_spatial, *kernel, C)
    perm = (0, *range(1, 1 + rank), *range(2 + rank, 2 + 2 * rank), 1 + rank)
    win = win.transpose(perm)
    n = xp.shape[0]
    out_spatial = win.shape[1:1 + rank]
    return np.ascontiguousarray(win).reshape(
        n * int(np.prod(out_spatial)), int(np.prod(kernel)) * xp.shape[-1])


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

    pad_spec = ((0, 0),) + tuple((p, p) for p in pads) + ((0, 0),)

    def columns():
        xp = np.pad(x.data, pad_spec) if any(pads) else x.data
        return _im2col(xp, kernel)

    y = columns() @ w.data.reshape(-1, cout)
    if b is not None:
        if b.data.shape != (cout,):
            raise ValueError(f"bias shape {b.data.shape} does not match {cout} filters")
        y += b.data
    n = x.data.shape[0]
    y = y.reshape((n, *out_spatial, cout))
    _record(f"conv{rank}d", np.prod(out_spatial) * n * int(np.prod(kernel)) * cin * cout,
            y.shape)

    def bwd(g):
        gmat = g.reshape(-1, cout)
        if w.requires_grad:
            accumulate_grad(w, (columns().T @ gmat).reshape(w.data.shape))
        if b is not None and b.requires_grad:
            accumulate_grad(b, gmat.sum(axis=0))
        if x.requires_grad:
            # k-1-p padding makes the correlation come out at x's shape
            gp = np.pad(g, ((0, 0),) + tuple((k - 1 - p,) * 2 for k, p in zip(kernel, pads))
                        + ((0, 0),))
            wflip = np.flip(w.data, tuple(range(rank))).swapaxes(rank, rank + 1)
            accumulate_grad(x, (_im2col(gp, kernel) @ wflip.reshape(-1, cin))
                            .reshape(x.data.shape))

    parents = (x, w) if b is None else (x, w, b)
    return _node(y, parents, f"conv{rank}d", bwd)


@dataclass
class IndexMap:
    """Argmax positions recorded by max pooling, consumed by unpooling.

    ``codes[n, *coarse, c]`` holds the row-major offset of the maximum
    inside its pooling window.
    """
    codes: np.ndarray
    rank: int
    input_shape: tuple[int, ...]


def _pool_windows(x: np.ndarray, rank: int) -> np.ndarray:
    """(N, *spatial, C) -> (N, *half_spatial, C, 2**rank) windowed view with
    window elements in row-major order."""
    n = x.shape[0]
    c = x.shape[-1]
    spatial = x.shape[1:1 + rank]
    shape = [n]
    for s in spatial:
        shape.extend([s // 2, 2])
    shape.append(c)
    xr = x.reshape(shape)
    # move the three interleaved window axes after the channel axis
    win_axes = [2 + 2 * i for i in range(rank)]
    keep_axes = [0] + [1 + 2 * i for i in range(rank)] + [1 + 2 * rank]
    xr = xr.transpose(keep_axes + win_axes)
    return xr.reshape((n, *[s // 2 for s in spatial], c, 2 ** rank))


def maxpool_with_indices(x: Tensor, rank: int) -> tuple[Tensor, IndexMap]:
    """Max pooling with window and stride 2 per spatial axis. Ties resolve
    to the first maximum in row-major window order. Returns the pooled
    tensor and the argmax index map for later unpooling."""
    if x.data.ndim != rank + 2:
        raise ValueError(f"maxpool rank {rank} expects {rank + 2}D input")
    spatial = x.data.shape[1:1 + rank]
    if any(s % 2 for s in spatial):
        raise ValueError(f"maxpool requires even spatial extents, got {spatial}")

    win = _pool_windows(x.data, rank)
    codes = win.argmax(axis=-1)
    pooled = np.take_along_axis(win, codes[..., None], axis=-1)[..., 0]
    index_map = IndexMap(codes=codes, rank=rank, input_shape=x.data.shape)
    _record(f"maxpool{rank}d", 0, pooled.shape)

    def bwd(g):
        if not x.requires_grad:
            return
        scattered = np.zeros(win.shape, dtype=np.float64)
        np.put_along_axis(scattered, codes[..., None], g[..., None], axis=-1)
        accumulate_grad(x, _unpool_scatter(scattered, x.data.shape, rank))

    out = _node(pooled, (x,), f"maxpool{rank}d", bwd)
    return out, index_map


def _unpool_scatter(win: np.ndarray, full_shape: tuple[int, ...], rank: int) -> np.ndarray:
    """Inverse of :func:`_pool_windows` for an (N, *half, C, 2**rank) array."""
    n = full_shape[0]
    c = full_shape[-1]
    spatial = full_shape[1:1 + rank]
    half = [s // 2 for s in spatial]
    win = win.reshape((n, *half, c) + (2,) * rank)
    # invert the transpose done in _pool_windows
    src = list(range(win.ndim))
    keep = src[:1 + rank]
    chan = src[1 + rank]
    wins = src[2 + rank:]
    interleaved = [keep[0]]
    for i in range(rank):
        interleaved.extend([keep[1 + i], wins[i]])
    interleaved.append(chan)
    return win.transpose(interleaved).reshape(full_shape)


def max_unpool(x: Tensor, index_map: IndexMap) -> Tensor:
    """Scatter pooled activations back to their recorded argmax positions;
    every other position is zero."""
    rank = index_map.rank
    expected = (index_map.input_shape[0], *[s // 2 for s in index_map.input_shape[1:1 + rank]],
                index_map.input_shape[-1])
    if x.data.shape != expected:
        raise ValueError(f"unpool input shape {x.data.shape} does not match index map {expected}")

    win = np.zeros(index_map.codes.shape + (2 ** rank,), dtype=np.float64)
    np.put_along_axis(win, index_map.codes[..., None], x.data[..., None], axis=-1)
    y = _unpool_scatter(win, index_map.input_shape, rank)
    _record(f"max_unpool{rank}d", 0, y.shape)

    def bwd(g):
        if not x.requires_grad:
            return
        gwin = _pool_windows(g, rank)
        accumulate_grad(x, np.take_along_axis(gwin, index_map.codes[..., None], axis=-1)[..., 0])

    return _node(y, (x,), f"max_unpool{rank}d", bwd)


def upsample_nearest(x: Tensor, rank: int) -> Tensor:
    """Nearest-neighbour upsampling by 2 per spatial axis (parameter free)."""
    if x.data.ndim != rank + 2:
        raise ValueError(f"upsample rank {rank} expects {rank + 2}D input")
    y = x.data
    for axis in range(1, 1 + rank):
        y = np.repeat(y, 2, axis=axis)
    _record(f"upsample{rank}d", 0, y.shape)

    def bwd(g):
        if not x.requires_grad:
            return
        accumulate_grad(x, _pool_windows(g, rank).sum(axis=-1))

    return _node(y, (x,), f"upsample{rank}d", bwd)


class RunningStats:
    """Per-channel exponential moving averages used by batch norm at
    inference time. Updated in place during training forward passes."""

    def __init__(self, channels: int):
        self.mean = np.zeros(channels, dtype=np.float64)
        self.var = np.ones(channels, dtype=np.float64)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running: RunningStats,
               training: bool, momentum: float = 0.99, eps: float = 1e-3) -> Tensor:
    """Batch normalisation over all axes except the trailing channel axis,
    followed by ReLU, as one graph node.

    Training mode normalises with batch statistics and folds them into the
    running averages; inference mode uses the stored averages only. The
    steps run in place, in the elementwise order of a separate batch norm
    followed by ``y * (y > 0)``, so results match that pair bit for bit.
    Training keeps only ``xhat``, the ReLU mask and ``inv_std`` for
    backward. Inference writes its output over ``xhat`` and keeps the
    mask; a backward pass through it recomputes ``xhat`` from ``x``.
    """
    c = x.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError("batch norm scale/offset must have one value per channel")
    axes = tuple(range(x.data.ndim - 1))
    m = int(np.prod([x.data.shape[a] for a in axes]))
    if m == 0:
        raise ValueError("batch norm requires a non-empty batch")

    if training:
        mean = x.data.mean(axis=axes)
        xhat = x.data - mean
        # numpy's own var steps, so this equals x.var(axis=axes) bit for bit
        var = (xhat * xhat).sum(axis=axes) / m
        running.mean[:] = momentum * running.mean + (1.0 - momentum) * mean
        running.var[:] = momentum * running.var + (1.0 - momentum) * var
    else:
        mean = running.mean.copy()  # training passes update it in place
        var = running.var
        xhat = x.data - mean
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    if training:
        y = gamma.data * xhat
    else:
        y = xhat
        y *= gamma.data
    y += beta.data
    mask = y > 0
    y *= mask
    _record("batch_norm", 0, y.shape)

    def bwd(g):
        g = g * mask
        xh = xhat if training else (x.data - mean) * inv_std
        if gamma.requires_grad:
            accumulate_grad(gamma, (g * xh).sum(axis=axes))
        if beta.requires_grad:
            accumulate_grad(beta, g.sum(axis=axes))
        if x.requires_grad:
            if training:
                gxhat = g * gamma.data
                gx = (gxhat - gxhat.mean(axis=axes)
                      - xh * (gxhat * xh).mean(axis=axes)) * inv_std
            else:
                gx = g * gamma.data * inv_std
            accumulate_grad(x, gx)

    return _node(y, (x, gamma, beta), "batch_norm", bwd)
