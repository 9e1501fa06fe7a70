"""Optimizer, schedule, history, and end-to-end training behavior."""
import gc

import numpy as np
import pytest

from sliceseg import training
from sliceseg.autodiff import Tensor, no_grad
from sliceseg.data import extract_stack
from sliceseg.losses import dice_per_class
from sliceseg.models import ModelSpec, assemble_model
from sliceseg.phantom import PhantomRecipe, StructureRecipe, generate_cohort
from sliceseg.training import (AdamState, PlateauSchedule, TrainConfig, adam_step,
                               build_samples, evaluate, predict_volume, run_training,
                               validate)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    g = np.array([0.3, -0.1, 2.0])
    w.grad = g.copy()
    params = {"w": w}
    state = AdamState(params)
    adam_step(params, state, lr=1e-2)
    # bias correction makes the first update lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0, 0.5]) - 1e-2 * g / (np.abs(g) + 1e-8)
    assert np.allclose(w.data, expected, atol=1e-12)
    assert state.t == 1


def test_adam_l2_only_for_named_parameters():
    w = Tensor(np.array([2.0]), requires_grad=True)
    b = Tensor(np.array([2.0]), requires_grad=True)
    w.grad = np.zeros(1)
    b.grad = np.zeros(1)
    params = {"w": w, "b": b}
    adam_step(params, AdamState(params), lr=1e-3, l2_coefficient=1e-2,
              decay_names={"w"})
    assert not np.allclose(w.data, 2.0)
    assert np.allclose(b.data, 2.0)


def test_adam_none_grad_treated_as_zero():
    w = Tensor(np.array([1.0]), requires_grad=True)
    params = {"w": w}
    adam_step(params, AdamState(params), lr=1e-2)
    assert np.allclose(w.data, 1.0)


def test_adam_rejects_nonpositive_lr():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        adam_step({"w": w}, AdamState({"w": w}), lr=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_adam_rejects_non_finite_lr_before_any_update(lr):
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    w.grad = np.array([0.3, -0.1, 2.0])
    state = AdamState({"w": w})
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        adam_step({"w": w}, state, lr)
    np.testing.assert_array_equal(w.data, [1.0, -2.0, 0.5])
    assert state.t == 0


# ---------------------------------------------------------------------------
# plateau schedule


def test_schedule_frozen_validation_trace():
    # constant validation loss: drop after each patience window, stop at 11
    sched = PlateauSchedule(1e-4, 0.2, patience=5, early_stop=11,
                            min_improvement=1e-5)
    lrs = []
    stopped_at = None
    for epoch in range(1, 50):
        lrs.append(sched.lr)
        improved, stop = sched.observe(1.0)
        if stop:
            stopped_at = epoch
            break
    assert stopped_at == 11
    assert lrs[:5] == [1e-4] * 5
    assert np.allclose(lrs[5:10], 2e-5)
    assert np.isclose(lrs[10], 4e-6)


def test_schedule_improvement_resets_counters():
    # the baseline epoch itself counts toward patience, so two flat
    # epochs already trigger the first drop
    sched = PlateauSchedule(1e-3, 0.5, patience=2, early_stop=4, min_improvement=1e-5)
    sched.observe(1.0)
    sched.observe(1.0)
    assert np.isclose(sched.lr, 5e-4)
    improved, _ = sched.observe(0.9)
    assert improved
    assert np.isclose(sched.lr, 5e-4)
    assert sched.epochs_since_improvement == 0
    # four flat epochs after the improvement: drop on the 2nd and 4th,
    # stop on the 4th
    sched.observe(0.9)
    sched.observe(0.9)
    assert np.isclose(sched.lr, 2.5e-4)
    _, stop3 = sched.observe(0.9)
    _, stop4 = sched.observe(0.9)
    assert not stop3 and stop4


def test_schedule_sub_threshold_improvement_ignored():
    sched = PlateauSchedule(1e-3, 0.5, patience=3, early_stop=9, min_improvement=1e-2)
    sched.observe(1.0)
    improved, _ = sched.observe(1.0 - 1e-3)
    assert not improved
    # best never moved, so a real improvement is still measured from 1.0
    improved, _ = sched.observe(0.98)
    assert improved


def test_first_observation_is_baseline_not_improvement():
    sched = PlateauSchedule(1e-3, 0.5, patience=5, early_stop=5, min_improvement=1e-5)
    improved, stop = sched.observe(123.4)
    assert not improved and not stop
    assert sched.best == 123.4


# ---------------------------------------------------------------------------
# sample construction


def tiny_cohort(n=4, seed=0, shape=(24, 24, 8), k=3):
    # small structures so the separation constraint always has room
    structures = tuple(StructureRecipe(radius_range=(1.0, 2.0), depth_range=(2, 3),
                                       drift_range=(0.0, 0.3),
                                       intensity=1.0 + 0.7 * i)
                       for i in range(k - 1))
    recipe = PhantomRecipe(shape=shape, structures=structures, channels=1)
    return generate_cohort(recipe, n, seed=seed)


def test_build_samples_slices_for_2d_and_tiles_for_3d():
    vols = tiny_cohort(2)
    spec2d = ModelSpec(mode="end2end_2d", backbone="unet", d=1, in_channels=1,
                       num_classes=3, base_filters=4)
    samples = build_samples(vols, spec2d)
    assert len(samples) == 2 * 8
    assert samples[0].stack.shape == (24, 24, 1, 1)

    spec3d = ModelSpec(mode="end2end_3d", backbone="unet", d=8, in_channels=1,
                       num_classes=3, base_filters=4)
    tiles = build_samples(vols, spec3d)
    assert len(tiles) == 2
    assert tiles[0].stack.shape == (24, 24, 8, 1)
    assert tiles[0].target.shape == (24, 24, 8)
    for tile, vol in zip(tiles, vols, strict=True):
        assert np.shares_memory(tile.stack, vol.image) and tile.stack.flags.writeable
        np.testing.assert_array_equal(tile.stack, vol.image)
        np.testing.assert_array_equal(tile.target, vol.labels)


def test_build_samples_pseudo3d_stacks():
    vols = tiny_cohort(1)
    spec = ModelSpec(mode="proposed", backbone="unet", d=5, in_channels=1,
                     num_classes=3, base_filters=4)
    samples = build_samples(vols, spec)
    assert len(samples) == 8
    assert samples[0].stack.shape == (24, 24, 5, 1)
    assert samples[0].target.shape == (24, 24)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 13, 15])
def test_slice_samples_are_read_only_views_of_one_padded_copy(d):
    vol = tiny_cohort(1, shape=(24, 24, 16))[0]
    spec = ModelSpec(mode="end2end_2d" if d == 1 else "channel_based", backbone="unet",
                     d=d, in_channels=1, num_classes=3, base_filters=4)
    samples = build_samples([vol], spec)
    assert len(samples) == 16
    for z, sample in enumerate(samples):
        want = extract_stack(vol, z, d)  # edge windows replicate the end slices
        assert sample.stack.shape == want.stack.shape
        assert sample.stack.dtype == want.stack.dtype
        np.testing.assert_array_equal(sample.stack, want.stack)
        np.testing.assert_array_equal(sample.target, want.target)
    base = samples[0].stack.base
    assert all(sample.stack.base is base for sample in samples)
    assert base.size == 24 * 24 * (16 + d - 1)
    with pytest.raises(ValueError, match="read-only"):
        samples[-1].stack[0, 0, 0, 0] = 1.0


def test_build_samples_rejects_shallow_volume_for_3d():
    vols = tiny_cohort(1, shape=(24, 24, 8))
    spec = ModelSpec(mode="end2end_3d", backbone="unet", d=16, in_channels=1,
                     num_classes=3, base_filters=4)
    with pytest.raises(ValueError):
        build_samples(vols, spec)


# ---------------------------------------------------------------------------
# training loop


def quick_config(**kw):
    base = dict(initial_lr=1e-3, max_epochs=3, patience_epochs=5,
                early_stop_epochs=11, batch_size=4, seed=0)
    base.update(kw)
    from sliceseg.data import AugmentParams
    return TrainConfig(augment=AugmentParams(probability=0.0), **base)


def train_tiny(mode="proposed", d=3, seed=0, config=None):
    vols = tiny_cohort(3, seed=7)
    spec = ModelSpec(mode=mode, backbone="unet", d=d, in_channels=1,
                     num_classes=3, base_filters=4)
    model = assemble_model(spec, seed=seed)
    config = config or quick_config()
    history = run_training(model, build_samples(vols[:2], spec),
                           build_samples(vols[2:], spec), config)
    return model, history, vols, spec


def test_run_training_produces_full_history():
    model, history, _, _ = train_tiny()
    assert len(history.records) == 3
    assert history.stop_reason == "max_epochs"
    assert all(np.isfinite(r.train_loss) for r in history.records)
    assert history.records[0].lr == 1e-3


def test_run_training_restores_best_checkpoint():
    config = quick_config(max_epochs=6)
    model, history, vols, spec = train_tiny(config=config)
    best = min(r.val_loss for r in history.records)
    assert np.isclose(history.best_val_loss, best)
    val_samples = build_samples(vols[2:], spec)
    loss, _ = validate(model, val_samples, config)
    assert np.isclose(loss, best, rtol=1e-9)


def test_run_training_reproducible():
    _, h1, _, _ = train_tiny(seed=1)
    _, h2, _, _ = train_tiny(seed=1)
    assert h1.records == h2.records


def _live_graph_nodes() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o.parents)


def test_ragged_last_batch_counts_once_per_batch_and_per_sample(monkeypatch):
    # 5 samples at batch size 2: batches of 2, 2 and 1
    vols = tiny_cohort(3, seed=7)
    spec = ModelSpec(mode="proposed", backbone="unet", d=3, in_channels=1,
                     num_classes=3, base_filters=4)
    model = assemble_model(spec, seed=0)
    samples = build_samples(vols[2:], spec)[:5]
    config = quick_config(batch_size=2, max_epochs=1)
    losses, dscs = [], []
    with no_grad():
        for batch in (samples[0:2], samples[2:4], samples[4:5]):
            probs = model.forward(Tensor(np.stack([s.stack for s in batch])))
            targets = np.stack([s.target for s in batch])
            losses.append(config.loss_fn(probs, np.eye(3)[targets.astype(np.int64)]).item())
            for pred, target in zip(np.argmax(probs.data, axis=-1), targets):
                dscs.append(float(np.mean(dice_per_class(pred, target, 3)[1:])))
    assert len(dscs) == 5
    assert validate(model, samples, config) == ((losses[0] + losses[1] + losses[2]) / 3,
                                                sum(dscs) / 5)

    steps = []

    def known_step(model, batch, state, lr, config):
        steps.append(len(batch))
        return (1.0, 2.0, 4.0)[len(steps) - 1]

    monkeypatch.setattr(training, "train_step", known_step)
    history = run_training(model, samples, samples, config)
    assert steps == [2, 2, 1]
    assert history.records[0].train_loss == 7.0 / 3


def test_no_graph_outlives_its_training_step(monkeypatch):
    """When the next batch is augmented, the previous step's graph is gone,
    also across the validation pass between epochs."""
    before = _live_graph_nodes()
    real_augment = training.augment
    live = []

    def counting_augment(sample, params, rng):
        live.append(_live_graph_nodes())
        return real_augment(sample, params, rng)

    monkeypatch.setattr(training, "augment", counting_augment)
    train_tiny(config=quick_config(max_epochs=2))
    assert len(live) == 32  # 16 samples per epoch
    assert live == [before] * len(live)


def test_degenerate_channel_mode_matches_2d_trajectory():
    vols = tiny_cohort(3, seed=9)
    histories = []
    for mode, d in (("end2end_2d", 1), ("channel_based", 1)):
        spec = ModelSpec(mode=mode, backbone="unet", d=d, in_channels=1,
                         num_classes=3, base_filters=4)
        model = assemble_model(spec, seed=5)
        history = run_training(model, build_samples(vols[:2], spec),
                               build_samples(vols[2:], spec), quick_config())
        histories.append(history)
    assert histories[0].records == histories[1].records


def test_predict_volume_shapes():
    model, _, vols, spec = train_tiny()
    pred = predict_volume(model, vols[0])
    assert pred.shape == vols[0].labels.shape
    assert pred.dtype == np.uint8 or np.issubdtype(pred.dtype, np.integer)
    assert set(np.unique(pred)) <= {0, 1, 2}


def test_predict_volume_3d_tiles_cover_depth():
    vols = tiny_cohort(2, seed=3, shape=(24, 24, 12))
    spec = ModelSpec(mode="end2end_3d", backbone="unet", d=8, in_channels=1,
                     num_classes=3, base_filters=4)
    model = assemble_model(spec, seed=0)
    pred = predict_volume(model, vols[0])
    assert pred.shape == (24, 24, 12)


def check_predict_volume_matches_per_stack_forward(mode, backbone, d):
    # one forward per chunk must label every voxel as forward does on that
    # slice's own d-slice stack; batch sizes 3 and 8 leave ragged chunks
    volume = tiny_cohort(1, seed=11, shape=(16, 16, 16))[0]
    spec = ModelSpec(mode=mode, backbone=backbone, d=d, in_channels=1,
                     num_classes=3, base_filters=4)
    model = assemble_model(spec, seed=d)
    want = np.stack([model.forward(Tensor(extract_stack(volume, z, d).stack[None])).data[0]
                     .argmax(axis=-1) for z in range(16)], axis=-1)
    for batch_size in (1, 3, 8):
        np.testing.assert_array_equal(predict_volume(model, volume, batch_size), want)


@pytest.mark.parametrize("backbone", ["unet", "segnet"])
@pytest.mark.parametrize("mode,d", [("end2end_2d", 1)]
                         + [("channel_based", d) for d in range(1, 16, 2)])
def test_predict_volume_matches_per_stack_forward(mode, d, backbone):
    check_predict_volume_matches_per_stack_forward(mode, backbone, d)


@pytest.mark.parametrize("backbone", ["unet", "segnet"])
@pytest.mark.parametrize("d", range(3, 16, 2))
def test_predict_volume_proposed_matches_per_stack_forward(backbone, d):
    check_predict_volume_matches_per_stack_forward("proposed", backbone, d)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_predict_volume_rejects_batch_size_below_one(batch_size):
    volume = tiny_cohort(1, seed=11, shape=(16, 16, 16))[0]
    model = assemble_model(ModelSpec(mode="proposed", backbone="unet", d=3, in_channels=1,
                                     num_classes=3, base_filters=4), seed=0)
    message = f"batch_size must be at least 1, got {batch_size}"
    with pytest.raises(ValueError, match=message):
        predict_volume(model, volume, batch_size)
    with pytest.raises(ValueError, match=message):
        evaluate(model, [volume], batch_size=batch_size)


def test_run_training_stops_on_non_finite_train_loss():
    vols = tiny_cohort(3, seed=7)
    spec = ModelSpec(mode="proposed", backbone="unet", d=3, in_channels=1,
                     num_classes=3, base_filters=4)
    train = build_samples(vols[:2], spec)
    train[0].stack = train[0].stack.copy()
    train[0].stack[0, 0, 0, 0] = np.nan
    history = run_training(assemble_model(spec, seed=0), train,
                           build_samples(vols[2:], spec), quick_config(max_epochs=5))
    assert history.stop_reason == "non_finite"
    assert len(history.records) == 1
    assert np.isnan(history.records[0].train_loss)


def test_run_training_non_finite_keeps_best_weights(monkeypatch):
    # validation turns non-finite at epoch 3; epochs 1-2 hold the best weights
    real_validate = training.validate
    calls = []

    def validate_nan_at_3(model, samples, config):
        calls.append(1)
        loss, dsc = real_validate(model, samples, config)
        return (float("nan"), dsc) if len(calls) == 3 else (loss, dsc)

    monkeypatch.setattr(training, "validate", validate_nan_at_3)
    config = quick_config(max_epochs=6)
    model, history, vols, spec = train_tiny(config=config)
    monkeypatch.undo()
    assert history.stop_reason == "non_finite"
    assert len(history.records) == 3
    best = min(r.val_loss for r in history.records[:2])
    assert history.best_val_loss == best
    loss, _ = validate(model, build_samples(vols[2:], spec), config)
    assert np.isclose(loss, best, rtol=1e-9)


def test_evaluate_reports_per_class():
    model, _, vols, spec = train_tiny()
    result = evaluate(model, vols[2:])
    assert len(result.per_class) == 3
    assert 0.0 <= result.mean_foreground <= 1.0
    assert len(result.per_volume) == 1


def test_evaluate_perfect_model_scores_one():
    class Oracle:
        def __init__(self, volume, k):
            self.volume = volume
            self.k = k
            self.spec = ModelSpec(mode="end2end_2d", backbone="unet", d=1,
                                  in_channels=1, num_classes=k, base_filters=4)

        def forward(self, x, training=False):
            idx = getattr(self, "_cursor", 0)
            n = x.data.shape[3] - self.spec.d + 1
            labels = self.volume.labels[:, :, idx:idx + n]
            onehot = np.eye(self.k)[labels.transpose(2, 0, 1)]
            self._cursor = idx + n
            return Tensor(onehot)

    vols = tiny_cohort(1, seed=21)
    oracle = Oracle(vols[0], 3)
    result = evaluate(oracle, vols, batch_size=4)
    assert np.allclose(result.per_class, 1.0)
    assert np.isclose(result.mean_foreground, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(initial_lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(loss="focal")


@pytest.mark.parametrize("field, value", [
    ("initial_lr", float("nan")), ("initial_lr", float("inf")),
    ("l2_coefficient", -1e-5), ("l2_coefficient", float("nan")),
    ("l2_coefficient", float("inf")), ("min_improvement", -1.0),
    ("min_improvement", float("nan")), ("min_improvement", float("inf")),
])
def test_config_rejects_non_finite_or_negative_rates_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {value}$"):
        TrainConfig(**{field: value})


def test_validate_rejects_no_samples():
    spec = ModelSpec(mode="end2end_2d", backbone="unet", d=1, in_channels=1,
                     num_classes=3, base_filters=4)
    with pytest.raises(ValueError, match="^no samples to validate$"):
        validate(assemble_model(spec, seed=0), [], quick_config())
