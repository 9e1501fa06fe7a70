"""Loss identities and gradients.

The identities pin the functional form: a perfect one-hot prediction
scores -1 on the soft overlap loss and 0 cross-entropy, disjoint supports
score 0, a uniform prediction pays exactly log K cross-entropy.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg.autodiff import Tensor, softmax
from sliceseg.gradcheck import finite_difference_check
from sliceseg.losses import (combined_loss, cross_entropy_loss, dice_per_class, hard_dice,
                             soft_dice_loss)


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


@pytest.mark.parametrize("loss_fn", [soft_dice_loss, cross_entropy_loss, combined_loss])
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
