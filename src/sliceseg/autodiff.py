"""Reverse-mode automatic differentiation over dense float64 arrays.

Every value flowing through a model is a :class:`Tensor`. Applying an
operation builds a node that remembers its parent tensors and a closure
that routes the output gradient back to them, so a full forward pass
leaves behind the computation graph needed by :func:`backward`, which
releases it as it runs. Inside
:func:`no_grad` ops return bare tensors instead, so inference keeps no
graph alive.
"""
from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class Tensor:
    """Dense float64 array plus an optional gradient buffer.

    Leaf tensors hold data (inputs, parameters). Interior tensors are
    produced by the op functions in this package and keep references to
    their parents for the backward pass. ``grad`` may share memory with
    other gradients and with arrays a backward closure made, and it is
    read-only: to change a gradient, replace ``grad``; never write into it.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Build no graph in this thread: op results inside the block are bare
    tensors with no parents and no backward closure, whatever their inputs
    require. The previous setting is restored on exit, so blocks nest."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result. Under :func:`no_grad` the result keeps neither
    parents nor closure; otherwise the closure is kept when some parent
    needs gradients."""
    out = Tensor(data)
    if not _grad_mode.enabled:
        return out
    out.parents = tuple(parents)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._backward = backward
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad`` if ``t`` requires gradients: a first gradient
    is the array handed over, not a copy (``asarray`` copies no float64
    array and makes numpy's 0-d scalar results arrays), a later sum is a new
    array, and the stored gradient is read-only, so others may share it."""
    if not t.requires_grad:
        return
    t.grad = np.asarray(g if t.grad is None else t.grad + g, dtype=np.float64)
    t.grad.flags.writeable = False


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-first ordering of the graph below ``root``.

    Iterative so deep graphs cannot hit the recursion limit. The order is
    a function of graph structure only, which keeps backward deterministic.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _released(g: np.ndarray) -> None:
    raise ValueError("backward reached a released node: a graph backpropagates once, "
                     "and the first backward through it dropped this node's parents "
                     "and saved arrays")


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every tensor below ``loss`` that requires it.

    The loss must be scalar. Its seed gradient of ones is read-only, like
    every stored gradient, so no closure can write into its input. Closures
    run in reverse topological order, only on nodes a gradient reached, and
    free that gradient once run. A leaf that no gradient reached keeps
    ``grad`` None, which its readers (``training.adam_step``,
    ``gradcheck.finite_difference_check``) take as zero.

    Backward also releases the graph as it moves toward the inputs: each
    interior node, once done, drops its parents and its closure, and with
    them the arrays the closure saved (conv inputs, batch-norm inputs and
    masks, the softmax output). So the graph keeps nothing alive once
    backward returns, even while the caller holds ``loss``; ``loss.data``
    and the leaves are untouched. A graph
    backpropagates once: a second ``backward(loss)``, or one through a new
    graph built on a released node, raises ``ValueError`` where a
    gradient reaches a released node, instead of giving zero gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    loss.grad.flags.writeable = False
    while order:
        node = order.pop()
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None
            node._backward = _released
        node.parents = ()


# ---------------------------------------------------------------------------
# mul and sum_all turn any output into a scalar that backward accepts


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return _node(a.data * b.data, (a, b), bwd)


def sum_all(x: Tensor) -> Tensor:
    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g, x.data.shape))

    return _node(np.asarray(x.data.sum()), (x,), bwd)


def _channel_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``a``, or ``a * b``, summed over every axis but the trailing channel
    axis, bit for bit as ``.sum(axis=leading)`` and without the product's
    temporary. For C >= 2 numpy's reduce adds the positions in row-major
    order into a C-wide accumulator, one inner-loop call of C elements per
    position; einsum on the (positions, C) reshape adds in the same order at
    a fraction of the per-position cost. At C = 1 the reduce sums one
    contiguous vector pairwise, which einsum does not match, so it stays."""
    c = a.shape[-1]
    if c < 2:
        return (a if b is None else a * b).sum(axis=tuple(range(a.ndim - 1)))
    if b is None:
        return np.einsum("ij->j", a.reshape(-1, c))
    return np.einsum("ij,ij->j", a.reshape(-1, c), b.reshape(-1, c))


def _first_max(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first maximum over the leading axis of ``rows`` (K, ...), as
    ``(codes, values)``: bit for bit ``np.argmax(rows, axis=0)`` and the
    elements at those codes. The first maximum in row order wins, the first
    NaN beats every number, and of tied zeros the first keeps its sign.

    ``argmax`` along a short trailing axis runs numpy's inner loop once per
    position over K elements; here each step is one elementwise op over a
    whole row. ``np.maximum(r, best)`` returns its second operand on a ±0
    tie, which keeps the first zero, and each code counts the leading rows
    that miss the maximum."""
    best = rows[0]
    for r in rows[1:]:
        best = np.maximum(r, best)
    missed = np.ones(best.shape, dtype=bool)
    codes = np.zeros(best.shape, dtype=np.intp)
    for r in rows[:-1]:
        missed &= r != best
        missed &= r == r  # a NaN row holds a NaN maximum
        codes += missed
    if np.isnan(best).any():
        # of two NaNs np.maximum keeps the later one, argmax the first
        best = np.take_along_axis(rows, codes[None], axis=0)[0]
    return codes, best


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """``rows`` (K, ...) summed over the leading axis, bit for bit as
    numpy's ``.sum(axis=-1)`` adds a contiguous trailing axis of length K:
    in sequence from +0.0 below 8 rows, else in numpy's pairwise blocks of
    8 accumulators (halved above 128), added to +0.0. Each step adds whole
    rows, where the reduce would loop once per position over K elements."""
    n = len(rows)
    if n < 8:
        total = rows[0] + 0.0
        for r in rows[1:]:
            total += r
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(rows[:half]) + _row_sum(rows[half:])
    acc = rows[:8].copy()
    for i in range(8, n - n % 8, 8):
        acc += rows[i:i + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for r in rows[n - n % 8:]:
        total += r
    return total + 0.0


def fold_windows(x: Tensor, d: int) -> Tensor:
    """(N, H, W, D, C) -> (N * (D-d+1), H, W, d * C): each run of d
    neighbouring slices becomes one feature map. Row n * (D-d+1) + j is
    window j of input n, and channel k * C + c is channel c of that
    window's slice k (slice-major). Backward adds each window's gradient
    back onto the slices it covers, so overlapping windows sum."""
    n, h, w, depth, c = x.data.shape
    windows = depth - d + 1
    if d < 1 or windows < 1:
        raise ValueError(f"fold_windows: depth {depth} holds no window of {d} slices")
    view = np.lib.stride_tricks.sliding_window_view(x.data, d, axis=3)
    out = view.transpose(0, 3, 1, 2, 5, 4).reshape(n * windows, h, w, d * c)

    def bwd(g):
        g = g.reshape(n, windows, h, w, d, c).transpose(0, 2, 3, 1, 4, 5)
        gx = np.zeros(x.data.shape)
        gx[:, :, :, :windows] = g[..., 0, :]
        for k in range(1, d):
            gx[:, :, :, k:k + windows] += g[..., k, :]
        accumulate_grad(x, gx)

    return _node(out, (x,), bwd)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def bwd(g):
        for p, gp in zip(parts, np.split(g, np.cumsum(sizes[:-1]), axis=axis)):
            accumulate_grad(p, gp)

    return _node(out, parts, bwd)


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilised softmax along the last (class) axis.

    Every step runs on the class slices ``x[..., k]``, whole rows of
    positions, not numpy's per-position loop over K classes. The class
    maximum is a ``np.maximum`` chain, exact like ``x.max(axis=-1)``; the
    class sum and the backward's dot add in the reduce's order by
    ``_row_sum``; the subtraction, ``exp``, division and products are the
    same elementwise ops as on the whole array. So the bits are those of
    ``e = exp(x - x.max(-1))``, ``e / e.sum(-1)`` and
    ``y * (g - (g * y).sum(-1))``."""
    k = x.data.shape[-1]
    top = x.data[..., 0]
    for c in range(1, k):
        top = np.maximum(x.data[..., c], top)
    y = np.empty_like(x.data)
    for c in range(k):
        np.subtract(x.data[..., c], top, out=y[..., c])
    np.exp(y, out=y)
    total = _row_sum(np.moveaxis(y, -1, 0))
    for c in range(k):
        np.divide(y[..., c], total, out=y[..., c])

    def bwd(g):
        gx = g * y
        dot = _row_sum(np.moveaxis(gx, -1, 0))
        for c in range(k):
            np.subtract(g[..., c], dot, out=gx[..., c])
        accumulate_grad(x, np.multiply(y, gx, out=gx))

    return _node(y, (x,), bwd)
