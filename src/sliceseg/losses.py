"""Segmentation losses and the hard overlap metric.

Predicted distributions and targets are channels-last arrays whose
trailing axis indexes the classes; any leading axes (batch, spatial) are
treated as independent positions. Targets are one-hot and never receive
gradients: each loss is one graph node whose only parent is the
prediction, and a target passed as a :class:`Tensor` is read as data.

Each backward is written out, the way ``softmax``'s is. Floating-point
addition is not associative, so how the gradient terms on the prediction
are grouped is part of the result: regrouping them moves trained weights
in their last bits and, through them, every grid output. The combined
loss's gradient is (Dice intersection term + Dice denominator term) +
cross-entropy term, that is, the whole soft Dice gradient is formed
first and the cross-entropy gradient is added to it.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _channel_sum, _node, accumulate_grad

SOFT_DICE_EPSILON = 1e-7
PROBABILITY_FLOOR = 1e-12


def _check_pair(u, v) -> tuple[Tensor, np.ndarray]:
    """The prediction as a tensor and the target as a float64 array, once
    they agree in shape and hold at least one position and one class."""
    u = u if isinstance(u, Tensor) else Tensor(u)
    v = np.asarray(v.data if isinstance(v, Tensor) else v, dtype=np.float64)
    if u.data.shape != v.shape:
        raise ValueError(f"prediction shape {u.data.shape} != target shape {v.shape}")
    if u.data.ndim < 2:
        raise ValueError(f"expected at least (positions, classes) axes, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"loss inputs of shape {v.shape} hold no positions or no classes")
    return u, v


def hard_dice(pred_mask: np.ndarray, true_mask: np.ndarray) -> float:
    """Overlap coefficient 2|A.B| / (|A| + |B|) between two binary masks.

    Two empty masks count as a perfect match (1.0).
    """
    pred_mask = np.asarray(pred_mask)
    true_mask = np.asarray(true_mask)
    if pred_mask.shape != true_mask.shape:
        raise ValueError(f"mask shapes differ: {pred_mask.shape} vs {true_mask.shape}")
    a = pred_mask.astype(bool)
    b = true_mask.astype(bool)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def dice_per_class(pred_labels: np.ndarray, true_labels: np.ndarray,
                   num_classes: int) -> list[float]:
    """Hard overlap per class label in [0, num_classes)."""
    return [hard_dice(pred_labels == k, true_labels == k) for k in range(num_classes)]


def _soft_dice(u: np.ndarray, v: np.ndarray):
    """Soft Dice's value and the map from an incoming gradient to the
    gradient on ``u``."""
    den = (_channel_sum(u) + _channel_sum(v)) + SOFT_DICE_EPSILON
    per_class = (_channel_sum(u * v) * -2.0) / den

    def grad(g):
        gc = g / len(per_class)
        gu = ((gc / den) * -2.0) * v
        gu += -gc * per_class / den
        return gu

    return per_class.mean(), grad


def _cross_entropy(u: np.ndarray, v: np.ndarray):
    """Cross-entropy's value and the map from an incoming gradient to the
    gradient on ``u``, which is 0 wherever the clamp is active."""
    clipped = np.clip(u, PROBABILITY_FLOOR, 1.0)
    c = -1.0 / (u.size // u.shape[-1])

    def grad(g):
        return ((g * c) * v) / clipped * ((u > PROBABILITY_FLOOR) & (u < 1.0))

    return (v * np.log(clipped)).sum() * c, grad


def soft_dice_loss(u, v) -> Tensor:
    """Differentiable overlap loss in [-1, 0].

    Computed per class over all positions in the batch, then averaged over
    classes (background included):
        -2 sum(u v) / (sum(u) + sum(v) + SOFT_DICE_EPSILON)
    """
    u, v = _check_pair(u, v)
    value, grad = _soft_dice(u.data, v)
    return _node(value, (u,), lambda g: accumulate_grad(u, grad(g)))


def cross_entropy_loss(u, v) -> Tensor:
    """Mean categorical cross-entropy -sum_k v_k log u_k over positions.

    Probabilities are clamped to [PROBABILITY_FLOOR, 1] before the log so
    confident wrong predictions stay finite.
    """
    u, v = _check_pair(u, v)
    value, grad = _cross_entropy(u.data, v)
    return _node(value, (u,), lambda g: accumulate_grad(u, grad(g)))


def combined_loss(u, v) -> Tensor:
    """Sum of the soft overlap loss and the cross-entropy term."""
    u, v = _check_pair(u, v)
    dice, dice_grad = _soft_dice(u.data, v)
    ce, ce_grad = _cross_entropy(u.data, v)

    def bwd(g):
        gu = dice_grad(g)
        gu += ce_grad(g)
        accumulate_grad(u, gu)

    return _node(dice + ce, (u,), bwd)
