"""Acceptance suite.

One test per criterion, so a verbose run prints exactly one pass/fail
line for each:

 1. gradient correctness of every primitive and of the full pseudo-3D
    d=3 model against central finite differences
 2. transition block depth cascade d, d-2, ..., 1 with a 16-channel
    single-slice output
 3. parameter counts against the architecture comparison table
 4. loss identities at perfect, disjoint, and uniform predictions
 5. overfit smoke test on four phantom volumes
 6. channel-folding with d=1 degenerates exactly to the plain 2D model
 7. plateau schedule trace with frozen validation loss
 8. structure features against generator metadata and a hand example
 9. intensity normalization endpoints
10. bit-identical aggregate tables from two grid executions
"""
import dataclasses
import time

import numpy as np

from sliceseg import analysis, cli, ops
from sliceseg.autodiff import Tensor, mul, softmax, sum_all
from sliceseg.config import config_from_dict
from sliceseg.data import AugmentParams, normalize_ct, normalize_zscore
from sliceseg.gradcheck import finite_difference_check
from sliceseg.losses import (combined_loss, cross_entropy_loss, dice_per_class,
                             soft_dice_loss)
from sliceseg.models import (TRANSITION_WIDTH, ModelSpec, TransitionBlock,
                             assemble_model)
from sliceseg.phantom import (PhantomRecipe, StructureRecipe, dataset_presets,
                              generate_cohort, generate_phantom)
from sliceseg.training import (AdamState, PlateauSchedule, TrainConfig,
                               build_samples, predict_volume, run_training,
                               train_step)

SEEDS = range(20)


def spec(mode="proposed", backbone="unet", d=3, c=4, k=4, f=16) -> ModelSpec:
    return ModelSpec(mode=mode, backbone=backbone, d=d, in_channels=c,
                     num_classes=k, base_filters=f)


def n_params(model) -> int:
    return sum(t.data.size for t in model.parameters().values())


# ---------------------------------------------------------------------------
# criterion 1


def _probe(rng, out_shape):
    """Fixed random linear functional over an op's output.

    A quadratic functional makes normalized outputs (batch norm) produce
    input gradients that nearly cancel, pushing the finite-difference
    estimate into its roundoff floor; a linear probe keeps gradients O(1).
    """
    w = Tensor(np.random.default_rng(rng.integers(1 << 31)).normal(size=out_shape))
    return lambda out: sum_all(mul(out, w))


def _primitive_cases(rng):
    """One gradcheck target per differentiable primitive."""
    cases = {}

    x = Tensor(rng.normal(size=(2, 5, 6, 2)))
    w = Tensor(rng.normal(size=(3, 3, 2, 3)))
    b = Tensor(rng.normal(size=(3,)))
    p = _probe(rng, (2, 5, 6, 3))
    cases["conv2d"] = (lambda x_, w_, b_, p=p: p(ops.conv_forward(x_, w_, b_)),
                       [x, w, b])

    x = Tensor(rng.normal(size=(1, 5, 5, 3, 2)))
    w = Tensor(rng.normal(size=(3, 3, 3, 2, 2)))
    b = Tensor(rng.normal(size=(2,)))
    p = _probe(rng, (1, 5, 5, 1, 2))
    cases["conv3d_depth_valid"] = (
        lambda x_, w_, b_, p=p: p(ops.conv_forward(x_, w_, b_,
                                                   padded_axes=(True, True, False))),
        [x, w, b])

    # distinct well-separated values keep every pooled window smooth
    # across the finite-difference step
    vals = rng.permutation(48).astype(np.float64).reshape(1, 4, 6, 2) * 0.3
    x = Tensor(vals)
    p = _probe(rng, (1, 2, 3, 2))
    cases["maxpool"] = (lambda x_, p=p: p(ops.maxpool_with_indices(x_)[0]),
                        [x])

    x = Tensor(rng.normal(size=(2, 3, 3, 2)))
    gamma = Tensor(rng.normal(size=(2,)))
    beta = Tensor(rng.normal(size=(2,)))
    running_mean, running_var = np.zeros(2), np.ones(2)
    p = _probe(rng, (2, 3, 3, 2))
    cases["batch_norm"] = (
        lambda x_, g_, b_, p=p: p(ops.batch_norm(x_, g_, b_, running_mean, running_var,
                                                 training=True)),
        [x, gamma, beta])

    logits = Tensor(rng.normal(size=(4, 5)))
    p = _probe(rng, (4, 5))
    cases["softmax"] = (lambda l, p=p: p(softmax(l)), [logits])

    for name, loss in (("soft_dice", soft_dice_loss),
                       ("cross_entropy", cross_entropy_loss),
                       ("combined", combined_loss)):
        logits = Tensor(rng.normal(size=(8, 3)))
        y = Tensor(np.eye(3)[rng.integers(0, 3, size=8)])
        cases[name] = (lambda l, loss=loss, y=y: loss(softmax(l), y), [logits])
    return cases


def test_criterion_1_gradients_match_finite_differences():
    start = time.monotonic()
    for seed in SEEDS:
        rng = np.random.default_rng([1, seed])
        for name, (fn, inputs) in _primitive_cases(rng).items():
            report = finite_difference_check(fn, inputs)
            assert report.max_rel_error < 1e-4, f"{name} seed {seed}: {report}"

    model_spec = ModelSpec(mode="proposed", backbone="unet", d=3,
                           in_channels=2, num_classes=2, base_filters=4)
    for seed in SEEDS:
        rng = np.random.default_rng([2, seed])
        model = assemble_model(model_spec, seed=seed)
        x = Tensor(rng.normal(size=(1, 16, 16, 3, 2)))
        y = Tensor(np.eye(2)[rng.integers(0, 2, size=(1, 16, 16))])

        def full_model(*tensors):
            return combined_loss(model.forward(x, training=True), y)

        report = finite_difference_check(
            full_model, [x] + list(model.parameters().values()),
            max_coords_per_tensor=2, rng=np.random.default_rng([3, seed]))
        assert report.max_rel_error < 1e-3, f"full model seed {seed}: {report}"
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_2_transition_depth_cascade_is_exact():
    assert TRANSITION_WIDTH == 16
    for d in (3, 5, 7, 9, 11, 13):
        block = TransitionBlock(np.random.default_rng(0), d, 2)
        x = Tensor(np.random.default_rng(d).normal(size=(1, 12, 10, d, 2)))
        records = []
        with ops.cost_trace(records):
            y = block.forward(x, training=False)
        cascade = [d] + [r.shape[3] for r in records if r.kind == "conv3d"]
        assert cascade == list(range(d, 0, -2))
        assert y.data.shape == (1, 12, 10, TRANSITION_WIDTH)


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_parameter_counts_match_reference_table():
    count_2d = n_params(assemble_model(spec(mode="end2end_2d", d=1), seed=0))
    assert abs(count_2d - 493_000) <= 0.02 * 493_000

    count_3d = n_params(assemble_model(spec(mode="end2end_3d", d=16), seed=0))
    assert abs(count_3d - 1_461_000) <= 0.02 * 1_461_000

    counts = {d: n_params(assemble_model(spec(d=d), seed=0))
              for d in (5, 7, 9, 11, 13)}
    for d in (5, 7, 9, 11):
        assert 6_900 <= counts[d + 2] - counts[d] <= 7_100

    for d in (3, 5, 7, 13):
        count = n_params(assemble_model(spec(mode="channel_based", d=d), seed=0))
        assert count - count_2d == 9 * (d * 4 - 4) * 16


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_4_loss_identities():
    rng = np.random.default_rng(4)
    y = np.eye(3)[rng.integers(0, 3, size=24)]
    perfect = soft_dice_loss(Tensor(y), Tensor(y))
    assert abs(float(perfect.data) - (-1.0)) < 1e-4
    assert float(cross_entropy_loss(Tensor(y), Tensor(y)).data) < 1e-9

    u = np.zeros((4, 2))
    v = np.zeros((4, 2))
    u[:, 0] = 1.0
    v[:, 1] = 1.0
    assert float(soft_dice_loss(Tensor(u), Tensor(v)).data) == 0.0

    for k in (2, 3, 4, 7):
        uniform = np.full((30, k), 1.0 / k)
        target = np.eye(k)[rng.integers(0, k, size=30)]
        ce = float(cross_entropy_loss(Tensor(uniform), Tensor(target)).data)
        assert abs(ce - np.log(k)) < 1e-9


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_overfit_smoke():
    start = time.monotonic()
    volumes = [dataclasses.replace(v, image=normalize_zscore(v.image))
               for v in generate_cohort(dataset_presets()["organ_and_lesion"],
                                        4, seed=0)]
    assert volumes[0].labels.shape == (32, 32, 16)
    assert int(volumes[0].labels.max()) + 1 == 3

    model_spec = ModelSpec(mode="proposed", backbone="unet", d=3,
                           in_channels=1, num_classes=3, base_filters=16)
    model = assemble_model(model_spec, seed=0)
    samples = build_samples(volumes, model_spec)
    state = AdamState(model.parameters())
    step_cfg = TrainConfig(l2_coefficient=0.0)
    shuffle = np.random.default_rng(0)

    def train_dsc():
        per_volume = [np.mean(dice_per_class(predict_volume(model, v),
                                             v.labels, 3)[1:])
                      for v in volumes]
        return float(np.mean(per_volume))

    reached = None
    for epoch in range(1, 201):
        order = shuffle.permutation(len(samples))
        for i in range(0, len(order), 8):
            batch = [samples[j] for j in order[i:i + 8]]
            train_step(model, batch, state, 1e-3, step_cfg)
        if epoch % 5 == 0 and train_dsc() > 0.95:
            reached = epoch
            break

    assert reached is not None, "train DSC never exceeded 0.95 in 200 epochs"
    assert time.monotonic() - start < 900.0


# ---------------------------------------------------------------------------
# criterion 6


_TINY_RECIPE = PhantomRecipe(
    shape=(24, 24, 8),
    structures=(
        StructureRecipe(kind="ellipsoid", radius_range=(1.0, 2.0),
                        depth_range=(2, 3), drift_range=(0.0, 0.3)),
        StructureRecipe(kind="ellipsoid", radius_range=(1.0, 2.0),
                        depth_range=(2, 3), drift_range=(0.0, 0.3)),
    ),
)


def test_criterion_6_channel_mode_d1_degenerates_to_2d():
    volumes = [dataclasses.replace(v, image=normalize_zscore(v.image))
               for v in generate_cohort(_TINY_RECIPE, 3, seed=9)]
    config = TrainConfig(initial_lr=1e-3, max_epochs=3, batch_size=4, seed=0,
                         augment=AugmentParams(probability=0.0))
    results = []
    for mode in ("end2end_2d", "channel_based"):
        model_spec = ModelSpec(mode=mode, backbone="unet", d=1, in_channels=1,
                               num_classes=3, base_filters=4)
        model = assemble_model(model_spec, seed=5)
        history = run_training(model, build_samples(volumes[:2], model_spec),
                               build_samples(volumes[2:], model_spec), config)
        results.append((n_params(model), history.records, model.state()))

    (count_a, records_a, state_a), (count_b, records_b, state_b) = results
    assert count_a == count_b
    assert records_a == records_b
    assert sorted(state_a) == sorted(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_7_plateau_schedule_trace():
    schedule = PlateauSchedule(1e-4, 0.2, patience=5, early_stop=11,
                               min_improvement=1e-5)
    lrs = []
    stopped_at = None
    for epoch in range(1, 50):
        lrs.append(schedule.lr)
        _, stop = schedule.observe(1.0)
        if stop:
            stopped_at = epoch
            break
    assert stopped_at == 11
    assert lrs[:5] == [1e-4] * 5
    assert np.allclose(lrs[5:10], 2e-5)
    assert np.isclose(lrs[10], 4e-6)


# ---------------------------------------------------------------------------
# criterion 8


_FEATURE_RECIPE = PhantomRecipe(
    shape=(32, 32, 16),
    structures=(
        StructureRecipe(kind="ellipsoid", count=2, radius_range=(2.0, 3.5),
                        depth_range=(3, 6), drift_range=(0.0, 0.4)),
        StructureRecipe(kind="cylinder", count=1, radius_range=(2.0, 3.0),
                        depth_range=(5, 9), drift_range=(0.3, 0.9)),
    ),
)


def test_criterion_8_structure_features_match_generator():
    for seed in (0, 1, 2):
        volume, meta = generate_phantom(_FEATURE_RECIPE, seed=seed)
        labels = [volume.labels]
        for class_id in (1, 2):
            depths = meta.class_depths(class_id)
            assert analysis.structure_depth(labels, class_id) == \
                sum(depths) / len(depths)

            size = analysis.structure_size(labels, class_id)
            size_meta = meta.class_voxel_count(class_id) / volume.labels.size
            assert abs(size - size_meta) <= 0.05 * size_meta

            centroids = meta.class_slice_centroids(class_id)
            total = sum(
                float(np.hypot(centroids[z][0] - centroids[z - 1][0],
                               centroids[z][1] - centroids[z - 1][1]))
                for z in range(1, volume.labels.shape[2])
                if z in centroids and z - 1 in centroids)
            psi_meta = total / volume.labels.shape[2]
            psi = analysis.structure_displacement(labels, class_id)
            assert abs(psi - psi_meta) <= 0.5

    disks = np.zeros((30, 30, 2), dtype=np.uint8)
    disks[10, 10, 0] = 1
    disks[13, 14, 1] = 1
    assert analysis.structure_displacement([disks], 1) == 2.5


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_9_intensity_normalization_endpoints():
    anchors = np.array([[-1000.0, 2000.0], [500.0, 500.0]])
    out = normalize_ct(anchors)
    assert out[0, 0] == -1.0
    assert out[0, 1] == 1.0
    assert out[1, 0] == 0.0

    rng = np.random.default_rng(9)
    noise = rng.uniform(-4000.0, 5000.0, size=(40, 40))
    out = normalize_ct(noise)
    assert out.min() >= -1.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# criterion 10


def test_criterion_10_grid_runs_are_bit_identical(tmp_path):
    cfg = config_from_dict({
        "source": {"kind": "phantom", "preset": "organ_and_lesion",
                   "num_volumes": 6, "seed": 0, "normalization": "zscore"},
        "grid": {"modes": ["end2end_2d", "proposed"],
                 "backbones": ["unet", "segnet"], "d_values": [3],
                 "base_filters": 4},
        "train": {"max_epochs": 1, "batch_size": 8,
                  "augment": {"probability": 0.0}},
        "folds": {"count": 2, "seed": 0},
        "output_dir": "unused",
    })
    tables = []
    for run in ("first", "second"):
        out_dir = str(tmp_path / run)
        path = cli.run_grid(cfg, out_dir, log=lambda line: None)
        with open(path, "rb") as fh:
            tables.append(fh.read())
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 5
