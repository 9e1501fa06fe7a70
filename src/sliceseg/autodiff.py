"""Reverse-mode automatic differentiation over dense float64 arrays.

Every value flowing through a model is a :class:`Tensor`. Applying an
operation builds a node that remembers its parent tensors and a closure
that routes the output gradient back to them, so a full forward pass
leaves behind the computation graph needed by :func:`backward`. Inside
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
    their parents for the backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # Small operator surface; the heavy ops live in dedicated functions.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_const(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return add_const(self, -float(other))


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


def _node(data: np.ndarray, parents: Sequence[Tensor], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result. Under :func:`no_grad` the result keeps neither
    parents nor closure; otherwise the closure is kept when some parent
    needs gradients."""
    out = Tensor(data)
    out.op = op
    if not _grad_mode.enabled:
        return out
    out.parents = tuple(parents)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._backward = backward
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


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


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every tensor below ``loss`` that requires it.

    The loss must be scalar. Closures run in reverse topological order,
    only on nodes a gradient reached, and free that gradient once run;
    leaves on branches that do not influence the loss end up with zero
    gradients rather than None.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
    for node in order:
        if node.requires_grad and node._backward is None and node.grad is None:
            node.grad = np.zeros_like(node.data)


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return _node(a.data + b.data, (a, b), "add", bwd)


def add_const(x: Tensor, c: float) -> Tensor:
    def bwd(g):
        accumulate_grad(x, g)

    return _node(x.data + c, (x,), "add_const", bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return _node(a.data * b.data, (a, b), "mul", bwd)


def scale(x: Tensor, c: float) -> Tensor:
    def bwd(g):
        accumulate_grad(x, g * c)

    return _node(x.data * c, (x,), "scale", bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"div: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = a.data / b.data

    def bwd(g):
        accumulate_grad(a, g / b.data)
        accumulate_grad(b, -g * out / b.data)

    return _node(out, (a, b), "div", bwd)


def log(x: Tensor) -> Tensor:
    def bwd(g):
        accumulate_grad(x, g / x.data)

    return _node(np.log(x.data), (x,), "log", bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; the gradient is passed through strictly inside the
    interval and zero where clamping was active."""
    inside = (x.data > lo) & (x.data < hi)

    def bwd(g):
        accumulate_grad(x, g * inside)

    return _node(np.clip(x.data, lo, hi), (x,), "clip", bwd)


def sum_all(x: Tensor) -> Tensor:
    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g, x.data.shape))

    return _node(np.asarray(x.data.sum()), (x,), "sum", bwd)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g / n, x.data.shape))

    return _node(np.asarray(x.data.mean()), (x,), "mean", bwd)


def sum_axes(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(a % x.data.ndim for a in axes)
    out = x.data.sum(axis=axes)
    expand_shape = tuple(1 if i in axes else s for i, s in enumerate(x.data.shape))

    def bwd(g):
        accumulate_grad(x, np.broadcast_to(g.reshape(expand_shape), x.data.shape))

    return _node(out, (x,), "sum_axes", bwd)


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

    return _node(out, (x,), "fold_windows", bwd)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate_grad(p, g[tuple(idx)])

    return _node(out, parts, "concat", bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilised softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        accumulate_grad(x, y * (g - dot))

    return _node(y, (x,), "softmax", bwd)
