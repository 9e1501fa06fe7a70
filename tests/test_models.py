"""Architecture contracts: parameter counts, shape cascades, mode wiring."""
import tracemalloc

import numpy as np
import pytest

from sliceseg import ops
from sliceseg.autodiff import Tensor, backward, fold_windows, topo_order
from sliceseg.losses import combined_loss
from sliceseg.models import (MODES, ConvBlock, ModelSpec, SegmentationModel,
                             TRANSITION_WIDTH, TransitionBlock, assemble_model, he_uniform)
from sliceseg.training import AdamState, adam_step


def spec(mode="proposed", backbone="unet", d=3, c=4, k=4, f=16):
    return ModelSpec(mode=mode, backbone=backbone, d=d, in_channels=c,
                     num_classes=k, base_filters=f)


def n_params(model: SegmentationModel) -> int:
    return sum(t.data.size for t in model.parameters().values())


# ---------------------------------------------------------------------------
# parameter counts (reference values frozen from the implementation and
# checked against the published architecture-comparison table's tolerances)


def test_2d_unet_parameter_count():
    count = n_params(assemble_model(spec(mode="end2end_2d", d=1), seed=0))
    assert count == 488900
    assert abs(count - 493000) <= 0.02 * 493000


def test_3d_unet_parameter_count():
    count = n_params(assemble_model(spec(mode="end2end_3d", d=16), seed=0))
    assert count == 1462340
    assert abs(count - 1461000) <= 0.02 * 1461000


def test_2d_segnet_parameter_count_frozen():
    count = n_params(assemble_model(spec(mode="end2end_2d", backbone="segnet", d=1), seed=0))
    assert count == 440516


def test_proposed_count_step_per_added_slice_pair():
    # each extra slice pair adds one 3x3x3 16->16 block: 6912 weights,
    # 16 biases, 32 normalization scales/shifts
    counts = {d: n_params(assemble_model(spec(d=d), seed=0)) for d in (3, 5, 7, 9, 11, 13)}
    for d in (3, 5, 7, 9, 11):
        step = counts[d + 2] - counts[d]
        assert step == 6960
        assert 6900 <= step <= 7100


def test_channel_based_delta_is_first_layer_input_delta():
    c = 4
    base = n_params(assemble_model(spec(mode="end2end_2d", d=1, c=c), seed=0))
    for d in (3, 5, 7):
        count = n_params(assemble_model(spec(mode="channel_based", d=d, c=c), seed=0))
        assert count - base == 9 * (d * c - c) * 16


def test_channel_based_d1_count_equals_2d():
    a = n_params(assemble_model(spec(mode="channel_based", d=1), seed=0))
    b = n_params(assemble_model(spec(mode="end2end_2d", d=1), seed=0))
    assert a == b


def test_param_count_invariant_to_seed():
    assert n_params(assemble_model(spec(d=5), seed=0)) == \
        n_params(assemble_model(spec(d=5), seed=99))


# ---------------------------------------------------------------------------
# conv block graph


@pytest.mark.parametrize("shape", [(2, 32, 32, 4), (1, 16, 16, 8, 4)], ids=["rank2", "rank3"])
def test_training_conv_block_keeps_two_nodes_and_three_outputs(shape):
    rng = np.random.default_rng(0)
    block = ConvBlock(rng, len(shape) - 2, 4, 8)
    x = Tensor(rng.normal(size=shape))
    block.forward(x, training=True)  # warm-up: no first-call allocation is counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = block.forward(x, training=True)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # x, w, b, the conv output, gamma, beta and the batch norm + ReLU output
    assert len(topo_order(y)) == 7
    # conv output, xhat, the bool ReLU mask and the output: no padded copy
    assert retained <= 3.25 * y.data.nbytes


# ---------------------------------------------------------------------------
# transition block shape cascade


def traced_depth_cascade(block: TransitionBlock, x: Tensor) -> tuple[list[int], Tensor]:
    """Stack depth of the input and of every conv3d output in one forward."""
    records = []
    with ops.cost_trace(records):
        y = block.forward(x, training=False)
    return [x.data.shape[3]] + [r.shape[3] for r in records if r.kind == "conv3d"], y


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 13])
def test_transition_depth_trace(d):
    block = TransitionBlock(np.random.default_rng(0), d, 2)
    x = Tensor(np.random.default_rng(d).normal(size=(2, 8, 8, d, 2)))
    cascade, y = traced_depth_cascade(block, x)
    assert cascade == list(range(d, 0, -2))
    assert y.data.shape == (2, 8, 8, TRANSITION_WIDTH)


def test_transition_rejects_wrong_depth():
    block = TransitionBlock(np.random.default_rng(0), 5, 1)
    with pytest.raises(ValueError):
        block.forward(Tensor(np.zeros((1, 4, 4, 3, 1))), training=False)


@pytest.mark.parametrize("d", range(3, 16, 2))
def test_transition_deep_stack_equals_per_window_forwards(d):
    # a 16-slice stack gives one feature slice per d-slice window, input-major.
    # 16x16 in-plane keeps every per-window matrix product large enough that
    # OpenBLAS does not switch to its small-matrix kernel, which can sum in
    # another order.
    block = TransitionBlock(np.random.default_rng(d), d, 2)
    x = np.random.default_rng(d).normal(size=(2, 16, 16, 16, 2))
    windows = 16 - d + 1
    cascade, y = traced_depth_cascade(block, Tensor(x))
    assert y.data.shape == (2 * windows, 16, 16, TRANSITION_WIDTH)
    assert cascade == list(range(16, 16 - d, -2))
    per_window = [block.forward(Tensor(x[n:n + 1, :, :, j:j + d]), training=False).data[0]
                  for n in range(2) for j in range(windows)]
    np.testing.assert_array_equal(y.data, np.stack(per_window))


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation_rules():
    with pytest.raises(ValueError):
        spec(mode="end2end_2d", d=3)
    with pytest.raises(ValueError):
        spec(mode="proposed", d=4)
    with pytest.raises(ValueError):
        spec(mode="proposed", d=1)
    with pytest.raises(ValueError):
        spec(mode="channel_based", d=4)
    with pytest.raises(ValueError):
        spec(mode="end2end_3d", d=12)
    with pytest.raises(ValueError):
        spec(mode="nope")
    with pytest.raises(ValueError):
        spec(backbone="vgg")
    # allowed corner: channel_based degenerates to the 2D model at d=1
    spec(mode="channel_based", d=1)


def test_spec_roundtrip():
    s = spec(mode="channel_based", d=7)
    assert ModelSpec(**s.to_dict()) == s


def test_spec_rank():
    assert spec(mode="end2end_2d", d=1).rank() == 2
    assert spec(mode="channel_based", d=5).rank() == 2
    assert spec(mode="proposed", d=5).rank() == 2
    assert spec(mode="end2end_3d", d=8).rank() == 3


# ---------------------------------------------------------------------------
# channel folding (fold_windows)


def test_channel_fold_unfold_roundtrip():
    # at D == d the fold is a reshape of the trailing (stack, channel) axes
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 4, 5, 3))
    folded = fold_windows(Tensor(x), 5).data
    assert folded.shape == (2, 4, 4, 15)
    assert np.array_equal(folded.reshape(x.shape), x)


def test_channel_fold_layout_is_slice_major():
    x = np.zeros((1, 1, 1, 2, 3))
    x[0, 0, 0, 0] = [1, 2, 3]
    x[0, 0, 0, 1] = [4, 5, 6]
    assert np.array_equal(fold_windows(Tensor(x), 2).data[0, 0, 0], [1, 2, 3, 4, 5, 6])


def test_fold_windows_batch_is_window_major():
    # row n * (D-d+1) + j holds window j of input n
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 4, 7, 2))
    folded = fold_windows(Tensor(x), 3).data
    assert folded.shape == (2 * 5, 3, 4, 6)
    for n in range(2):
        for j in range(5):
            assert np.array_equal(folded[n * 5 + j], x[n, :, :, j:j + 3].reshape(3, 4, 6))


# ---------------------------------------------------------------------------
# forward shapes and wiring


@pytest.mark.parametrize("mode,backbone,d,in_shape,out_shape", [
    ("end2end_2d", "unet", 1, (2, 16, 16, 1, 4), (2, 16, 16, 4)),
    ("end2end_2d", "segnet", 1, (2, 16, 16, 1, 4), (2, 16, 16, 4)),
    ("proposed", "unet", 5, (2, 16, 16, 5, 4), (2, 16, 16, 4)),
    ("proposed", "segnet", 5, (2, 16, 16, 5, 4), (2, 16, 16, 4)),
    ("channel_based", "unet", 5, (2, 16, 16, 5, 4), (2, 16, 16, 4)),
    ("channel_based", "segnet", 5, (2, 16, 16, 5, 4), (2, 16, 16, 4)),
    ("end2end_3d", "unet", 8, (1, 16, 16, 8, 4), (1, 16, 16, 8, 4)),
    ("end2end_3d", "segnet", 8, (1, 16, 16, 8, 4), (1, 16, 16, 8, 4)),
])
def test_forward_shapes_and_probabilities(mode, backbone, d, in_shape, out_shape):
    model = assemble_model(spec(mode=mode, backbone=backbone, d=d, f=4), seed=1)
    x = Tensor(np.random.default_rng(2).normal(size=in_shape))
    y = model.forward(x, training=True)
    assert y.data.shape == out_shape
    assert np.allclose(y.data.sum(axis=-1), 1.0)
    assert np.all(y.data >= 0)


def test_stack_depth_mismatch_rejected():
    for mode, d, depth in (("proposed", 5, 3), ("channel_based", 5, 3),
                           ("end2end_3d", 8, 16), ("end2end_3d", 16, 8)):
        model = assemble_model(spec(mode=mode, d=d, f=4), seed=0)
        with pytest.raises(ValueError, match="depth"):
            model.forward(Tensor(np.zeros((1, 16, 16, depth, 4))), training=False)
    # the 2D mode takes a slab too: an (N, H, W, C) array has no depth axis
    model = assemble_model(spec(mode="end2end_2d", d=1, f=4), seed=0)
    with pytest.raises(ValueError, match="expects"):
        model.forward(Tensor(np.zeros((1, 16, 16, 4))), training=False)


def test_decay_set_is_conv_kernels_only():
    model = assemble_model(spec(d=3, f=4), seed=0)
    decay = model.decay_parameters()
    params = model.parameters()
    assert decay
    for name in decay:
        assert params[name].data.ndim >= 3
    for name in set(params) - decay:
        assert params[name].data.ndim == 1


def test_state_roundtrip_preserves_outputs():
    model = assemble_model(spec(mode="proposed", d=3, f=4, c=2, k=3), seed=7)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(1, 16, 16, 3, 2)))
    # training pass also moves the normalization running stats
    model.forward(x, training=True)
    before = model.forward(x, training=False).data.copy()
    state = model.state()
    for t in model.parameters().values():
        t.data += rng.normal(size=t.data.shape)
    model.load_state(state)
    after = model.forward(x, training=False).data
    assert np.array_equal(before, after)


def test_he_uniform_bound():
    rng = np.random.default_rng(9)
    w = he_uniform(rng, (3, 3), 8, 4)
    limit = np.sqrt(6.0 / (3 * 3 * 8))
    assert w.shape == (3, 3, 8, 4)
    assert np.all(np.abs(w) <= limit)


ALL_VARIANTS = [(m, b) for m in MODES for b in ("unet", "segnet")]


@pytest.mark.parametrize("mode,backbone", ALL_VARIANTS)
def test_one_training_step_touches_every_parameter(mode, backbone):
    d = {"end2end_2d": 1, "proposed": 3, "channel_based": 3, "end2end_3d": 8}[mode]
    model = assemble_model(spec(mode=mode, backbone=backbone, d=d, c=2, k=3, f=4), seed=11)
    rng = np.random.default_rng(12)
    if mode == "end2end_3d":
        # batch of 2: the bottleneck reduces 8^3 to a single voxel, and
        # batch norm over one position zeroes every gradient at that level
        x = rng.normal(size=(2, 8, 8, 8, 2))
        labels = rng.integers(0, 3, size=(2, 8, 8, 8))
    else:
        x = rng.normal(size=(2, 8, 8, d, 2))
        labels = rng.integers(0, 3, size=(2, 8, 8))
    y = np.eye(3)[labels]

    params = model.parameters()
    before = {name: t.data.copy() for name, t in params.items()}
    state = AdamState(params)
    for t in params.values():
        t.grad = None
    loss = combined_loss(model.forward(Tensor(x), training=True), y)
    backward(loss)
    adam_step(params, state, 1e-3, 1e-5, model.decay_parameters())
    unchanged = [name for name, t in params.items()
                 if np.array_equal(t.data, before[name])]
    assert unchanged == []
