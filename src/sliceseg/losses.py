"""Segmentation losses and the hard overlap metric.

Predicted distributions and targets are channels-last arrays whose
trailing axis indexes the classes; any leading axes (batch, spatial) are
treated as independent positions. Targets are one-hot and never receive
gradients.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SOFT_DICE_EPSILON = 1e-7
PROBABILITY_FLOOR = 1e-12


def _as_tensor(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def _check_pair(u: Tensor, v: Tensor) -> None:
    if u.data.shape != v.data.shape:
        raise ValueError(f"prediction shape {u.data.shape} != target shape {v.data.shape}")
    if u.data.ndim < 2:
        raise ValueError("expected at least (positions, classes) axes")


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


def soft_dice_loss(u, v) -> Tensor:
    """Differentiable overlap loss in [-1, 0].

    Computed per class over all positions in the batch, then averaged over
    classes (background included):
        -2 sum(u v) / (sum(u) + sum(v) + SOFT_DICE_EPSILON)
    """
    u = _as_tensor(u)
    v = _as_tensor(v)
    _check_pair(u, v)
    position_axes = tuple(range(u.data.ndim - 1))
    intersection = ad.sum_axes(ad.mul(u, v), position_axes)
    denom = ad.add_const(
        ad.add(ad.sum_axes(u, position_axes), ad.sum_axes(v, position_axes)), SOFT_DICE_EPSILON)
    per_class = ad.div(ad.scale(intersection, -2.0), denom)
    return ad.mean_all(per_class)


def cross_entropy_loss(u, v) -> Tensor:
    """Mean categorical cross-entropy -sum_k v_k log u_k over positions.

    Probabilities are clamped to [PROBABILITY_FLOOR, 1] before the log so
    confident wrong predictions stay finite.
    """
    u = _as_tensor(u)
    v = _as_tensor(v)
    _check_pair(u, v)
    positions = int(np.prod(u.data.shape[:-1]))
    logs = ad.log(ad.clip(u, PROBABILITY_FLOOR, 1.0))
    total = ad.sum_all(ad.mul(v, logs))
    return ad.scale(total, -1.0 / positions)


def combined_loss(u, v) -> Tensor:
    """Sum of the soft overlap loss and the cross-entropy term."""
    return ad.add(soft_dice_loss(u, v), cross_entropy_loss(u, v))
