"""Loss identities and gradients.

The identities pin the functional form: a perfect one-hot prediction
scores -1 on the soft overlap loss and 0 cross-entropy, disjoint supports
score 0, a uniform prediction pays exactly log K cross-entropy.
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import autodiff as ad
from sliceseg.autodiff import Tensor, backward, softmax
from sliceseg.gradcheck import finite_difference_check
from sliceseg.losses import (PROBABILITY_FLOOR, SOFT_DICE_EPSILON, combined_loss,
                             cross_entropy_loss, dice_per_class, hard_dice, soft_dice_loss)

LOSSES = [soft_dice_loss, cross_entropy_loss, combined_loss]


def one_hot(labels, k):
    return np.eye(k)[np.asarray(labels)]


def test_perfect_prediction_soft_dice_is_minus_one():
    v = one_hot([0, 1, 2, 1, 0], 3)
    loss = soft_dice_loss(v.copy(), v).item()
    # epsilon in the denominator keeps it a hair above -1
    assert abs(loss + 1.0) < 1e-6
    assert loss > -1.0


def test_perfect_prediction_cross_entropy_is_zero():
    v = one_hot([0, 2, 1], 3)
    assert abs(cross_entropy_loss(v.copy(), v).item()) < 1e-9


def test_disjoint_supports_soft_dice_is_zero():
    u = one_hot([0, 0, 0], 2)
    v = one_hot([1, 1, 1], 2)
    assert abs(soft_dice_loss(u, v).item()) < 1e-12


def test_uniform_prediction_cross_entropy_is_log_k():
    for k in (2, 3, 4, 7):
        n = 11
        u = np.full((n, k), 1.0 / k)
        v = one_hot(np.arange(n) % k, k)
        assert abs(cross_entropy_loss(u, v).item() - np.log(k)) < 1e-9


def test_half_overlap_soft_dice():
    # prediction covers the target on half the positions per class
    u = one_hot([0, 0, 1, 1], 2)
    v = one_hot([0, 1, 0, 1], 2)
    # per class: intersection 1, sums 2+2 -> 2*1/4 = 0.5
    assert abs(soft_dice_loss(u, v).item() + 0.5) < 1e-6


def test_combined_is_sum_of_parts():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(10, 4))
    u = softmax(Tensor(logits)).data
    v = one_hot(rng.integers(0, 4, size=10), 4)
    total = combined_loss(u, v).item()
    parts = soft_dice_loss(u, v).item() + cross_entropy_loss(u, v).item()
    assert abs(total - parts) < 1e-12


def test_loss_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        soft_dice_loss(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3), (4, 0)])
@pytest.mark.parametrize("loss_fn", LOSSES)
def test_loss_rejects_empty_positions_or_classes(loss_fn, shape):
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} hold"):
        loss_fn(np.zeros(shape), np.zeros(shape))


def test_hard_dice_identities():
    a = np.array([1, 1, 0, 0], dtype=bool)
    b = np.array([1, 0, 1, 0], dtype=bool)
    assert hard_dice(a, a) == 1.0
    assert hard_dice(a, ~a) == 0.0
    assert hard_dice(a, b) == 0.5
    assert hard_dice(np.zeros(4, bool), np.zeros(4, bool)) == 1.0


def test_dice_per_class_counts_every_label():
    pred = np.array([0, 1, 1, 2])
    true = np.array([0, 1, 2, 2])
    scores = dice_per_class(pred, true, num_classes=3)
    assert len(scores) == 3
    assert scores[0] == 1.0
    assert abs(scores[1] - 2 / 3) < 1e-12
    assert abs(scores[2] - 2 / 3) < 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 1000))
def test_soft_dice_bounded(k, n, seed):
    rng = np.random.default_rng(seed)
    u = softmax(Tensor(rng.normal(size=(n, k)))).data
    v = one_hot(rng.integers(0, k, size=n), k)
    loss = soft_dice_loss(u, v).item()
    assert -1.0 <= loss <= 0.0


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 1000))
def test_cross_entropy_nonnegative(k, n, seed):
    rng = np.random.default_rng(seed)
    u = softmax(Tensor(rng.normal(size=(n, k)))).data
    v = one_hot(rng.integers(0, k, size=n), k)
    assert cross_entropy_loss(u, v).item() >= 0.0


@pytest.mark.parametrize("loss_fn", LOSSES)
def test_loss_gradients_through_softmax(loss_fn):
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(6, 3)))
        v = one_hot(rng.integers(0, 3, size=6), 3)
        report = finite_difference_check(
            lambda z: loss_fn(softmax(z), v), [logits])
        worst = max(worst, report.max_rel_error)
    assert worst < 1e-6, worst


def test_epsilon_guards_empty_everything():
    # all-zero prediction and target would divide by zero without epsilon
    u = np.zeros((4, 1))
    v = np.zeros((4, 1))
    assert np.isfinite(soft_dice_loss(u, v).item())


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _oracle(u, v, g):
    """Each loss's value and input gradient for incoming gradient ``g``, in
    plain numpy, with the operations in the order that fixes their bits."""
    axes = tuple(range(u.ndim - 1))
    den = (u.sum(axis=axes) + v.sum(axis=axes)) + SOFT_DICE_EPSILON
    per_class = ((u * v).sum(axis=axes) * -2.0) / den
    gc = g / u.shape[-1]
    dice_grad = ((gc / den) * -2.0) * v
    dice_grad += -gc * per_class / den
    c = -1.0 / (u.size // u.shape[-1])
    clipped = np.clip(u, PROBABILITY_FLOOR, 1.0)
    ce = (v * np.log(clipped)).sum() * c
    ce_grad = ((g * c) * v) / clipped * ((u > PROBABILITY_FLOOR) & (u < 1.0))
    dice = per_class.mean()
    return {soft_dice_loss: (dice, dice_grad), cross_entropy_loss: (ce, ce_grad),
            combined_loss: (dice + ce, dice_grad + ce_grad)}


@pytest.mark.parametrize("g", [1.0, 0.37])
@pytest.mark.parametrize("shape", [(6, 1), (3, 4, 2), (2, 3, 3, 5)])
def test_losses_equal_the_plain_numpy_oracle_bit_for_bit(shape, g):
    rng = np.random.default_rng(sum(shape))
    u = rng.random(shape) * 1.3
    # clamped from below and above, and exactly at both ends of [0, 1]
    u.flat[:4] = [0.0, 1.0, 1.2, PROBABILITY_FLOOR / 1000]
    v = one_hot(rng.integers(0, shape[-1], size=shape[:-1]), shape[-1])
    want = _oracle(u, v, g)
    for loss_fn in LOSSES:
        ut = Tensor(u, requires_grad=True)
        loss = loss_fn(ut, v)
        backward(loss if g == 1.0 else ad.mul(loss, Tensor(g)))
        value, grad = want[loss_fn]
        np.testing.assert_array_equal(_bits(loss.data), _bits(np.asarray(value)))
        np.testing.assert_array_equal(_bits(ut.grad), _bits(grad))


def test_cross_entropy_gradient_is_zero_where_clamped():
    u = Tensor([[0.0, PROBABILITY_FLOOR / 10, 0.5], [1.0, 1.5, 0.25]], requires_grad=True)
    backward(cross_entropy_loss(u, np.ones((2, 3))))
    clamped = (u.data <= PROBABILITY_FLOOR) | (u.data >= 1.0)
    assert np.all(u.grad[clamped] == 0.0)
    assert np.all(u.grad[~clamped] != 0.0)


@pytest.mark.parametrize("loss_fn", LOSSES)
def test_each_loss_is_one_node_over_the_prediction(loss_fn):
    rng = np.random.default_rng(5)
    u = Tensor(softmax(Tensor(rng.normal(size=(5, 3)))).data, requires_grad=True)
    v = Tensor(one_hot(rng.integers(0, 3, size=5), 3), requires_grad=True)
    loss = loss_fn(u, v)
    assert loss.parents == (u,)
    assert ad.topo_order(loss) == [u, loss]
    backward(loss)
    # the target is data, as the module docstring says, even when it asks for gradients
    assert v.grad is None
    assert u.grad.shape == u.data.shape
