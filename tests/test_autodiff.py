"""Value and gradient tests for the reverse-mode tensor core."""
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sliceseg import autodiff as ad
from sliceseg.autodiff import Tensor, backward
from sliceseg.gradcheck import finite_difference_check
from sliceseg.losses import combined_loss
from sliceseg.models import ModelSpec, assemble_model
from sliceseg.ops import batch_norm, conv_forward
from sliceseg.phantom import dataset_presets, generate_cohort
from sliceseg.training import TrainConfig, build_samples, validate


def t(values, requires_grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


def test_public_names_are_pinned():
    # every op here has its own hand-written backward; adding one is a
    # decision to make here, not a side effect of composing a new loss
    public = {name for name, value in vars(ad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)
              and getattr(value, "__module__", None) == ad.__name__}
    assert public == {"Tensor", "no_grad", "accumulate_grad", "topo_order", "backward",
                      "mul", "sum_all", "fold_windows", "concat", "softmax"}


def test_mul_and_sum_all_values():
    a, b = t([1.0, 2.0]), t([3.0, 4.0])
    assert np.array_equal(ad.mul(a, b).data, [3.0, 8.0])
    x = t(np.arange(24.0).reshape(2, 3, 4))
    assert ad.sum_all(x).data.shape == ()
    assert ad.sum_all(x).item() == x.data.sum()


def test_diamond_graph_gradient():
    # y = sum(x*x) + sum(x) visits x through three paths; grads must accumulate
    x = t([2.0, -3.0])
    y = ad.sum_all(ad.concat([ad.mul(x, x), x], axis=0))
    backward(y)
    assert np.allclose(x.grad, 2.0 * x.data + 1.0)


def test_backward_rejects_nonscalar():
    x = t([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(ad.mul(x, x))


def test_tensor_outside_graph_keeps_none_grad():
    x, unused = t([1.0, 2.0]), t([5.0])
    backward(ad.sum_all(x))
    assert unused.grad is None
    assert np.allclose(x.grad, 1.0)


def test_backward_frees_interior_grads_and_leaves_unreached_leaves_none():
    # "first" routes its gradient to x only, so p's branch never sees one
    x, p = t([1.0, 2.0]), t([3.0, 4.0])
    hidden = ad.mul(p, p)
    first = ad._node(x.data.copy(), (x, hidden), lambda g: ad.accumulate_grad(x, g))
    y = ad.mul(first, first)
    loss = ad.sum_all(y)
    backward(loss)
    interior = (hidden, first, y, loss)
    assert [n.grad for n in interior] == [None] * 4
    assert p.grad is None
    assert np.allclose(x.grad, 2.0 * x.data)
    # every interior node is released, whether a gradient reached it or not
    assert all(n.parents == () and n._backward is ad._released for n in interior)
    assert loss.item() == 5.0 and x.data.tolist() == [1.0, 2.0]

    grad = x.grad.copy()
    with pytest.raises(ValueError, match="backpropagates once"):
        backward(loss)
    with pytest.raises(ValueError, match="backpropagates once"):
        backward(ad.sum_all(ad.mul(y, y)))
    # unreached before, so a new graph on it must not read as a zero gradient
    with pytest.raises(ValueError, match="backpropagates once"):
        backward(ad.sum_all(hidden))
    np.testing.assert_array_equal(x.grad, grad)
    assert p.grad is None


def test_repeated_backward_accumulates():
    x = t([1.0, 2.0])
    backward(ad.sum_all(x))
    backward(ad.sum_all(x))
    assert np.allclose(x.grad, 2.0)


def test_no_grad_tensor_stays_untouched():
    x = t([1.0, 2.0])
    c = t([10.0, 20.0], requires_grad=False)
    backward(ad.sum_all(ad.mul(x, c)))
    assert c.grad is None
    assert np.allclose(x.grad, c.data)


def _conv_bn_softmax_loss(freed_at_input: list):
    """A scalar over conv -> batch norm -> softmax, and weak references to
    the conv and batch-norm outputs; no other reference to the graph. The
    node below the conv notes in ``freed_at_input`` which of the two are
    gone when backward reaches it."""
    rng = np.random.default_rng(3)
    refs = []
    x = t(rng.normal(size=(2, 6, 6, 2)))
    probe = ad._node(x.data, (x,), lambda g: freed_at_input.extend(r() is None for r in refs))
    w = t(rng.normal(size=(3, 3, 2, 4)))
    gamma, beta = t(np.ones(4)), t(np.zeros(4))
    conv = conv_forward(probe, w, None)
    act = batch_norm(conv, gamma, beta, np.zeros(4), np.ones(4), training=True)
    probs = ad.softmax(act)
    loss = ad.sum_all(ad.mul(probs, Tensor(rng.normal(size=probs.data.shape))))
    refs += [weakref.ref(conv.data), weakref.ref(act.data)]
    return loss, (w, gamma, beta), refs


def test_backward_releases_the_graph_while_loss_is_held():
    freed_at_input = []
    loss, leaves, activations = _conv_bn_softmax_loss(freed_at_input)
    assert all(ref() is not None for ref in activations)
    value = loss.item()
    backward(loss)
    # freed on the way down, not only when backward returns
    assert freed_at_input == [True, True]
    assert [ref() for ref in activations] == [None, None]
    assert loss.parents == () and loss.item() == value
    assert all(leaf.grad is not None and leaf.grad.shape == leaf.data.shape for leaf in leaves)


@st.composite
def _channel_sum_cases(draw):
    rank = draw(st.integers(2, 5))
    lead = tuple(draw(st.lists(st.integers(1, 6 if rank < 5 else 4),
                               min_size=rank - 1, max_size=rank - 1)))
    c = draw(st.integers(1, 64))
    # a channel slice of a wider array, as concat's backward passes on:
    # its leading axes still merge, but a row is not contiguous with the next
    lo, hi = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return lead, c, (lo, hi), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_channel_sum_cases())
def test_channel_sum_equals_numpy_reduce_bit_for_bit(case):
    lead, c, (lo, hi), seed = case
    rng = np.random.default_rng(seed)
    axes = tuple(range(len(lead)))
    a = rng.normal(size=(*lead, c)) * 10.0 ** rng.uniform(-3, 3, size=c)
    b = rng.normal(size=(*lead, lo + c + hi))[..., lo:lo + c]
    for x, y in ((a, b), (b, a)):
        np.testing.assert_array_equal(ad._channel_sum(x), x.sum(axis=axes))
        np.testing.assert_array_equal(ad._channel_sum(x, y), (x * y).sum(axis=axes))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def _first_max_rows(draw):
    """K 1-40 rows of 1-3 axes holding any float64 (NaNs of any sign and
    payload, ±inf, ±0, ties), C-contiguous or as the strided class slices
    of a trailing axis."""
    k = draw(st.integers(1, 40))
    rest = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5))
    rows = draw(arrays(np.float64, (k, *rest),
                       elements=st.floats(width=64) | st.sampled_from((0.0, -0.0, 1.0))))
    if draw(st.booleans()):
        rows = np.moveaxis(np.ascontiguousarray(np.moveaxis(rows, 0, -1)), -1, 0)
    return rows


@settings(max_examples=200, deadline=None)
@given(_first_max_rows())
def test_first_max_equals_argmax_and_take_along_axis_bit_for_bit(rows):
    codes, values = ad._first_max(rows)
    want = np.argmax(rows, axis=0)
    assert codes.dtype == want.dtype
    np.testing.assert_array_equal(codes, want)
    np.testing.assert_array_equal(_bits(values),
                                  _bits(np.take_along_axis(rows, want[None], axis=0)[0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
       st.sampled_from((0.0, 0.1)), st.booleans(), st.integers(0, 2**32 - 1))
def test_row_sum_adds_in_numpy_reduce_order_bit_for_bit(n, rest, share, strided, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(*rest, n)) * 10.0 ** rng.uniform(-8, 8, size=(*rest, n))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    a = np.where(rng.random(a.shape) < share, specials[rng.integers(0, 6, a.shape)], a)
    rows = np.moveaxis(a, -1, 0)
    if not strided:
        rows = np.ascontiguousarray(rows)
    with np.errstate(invalid="ignore"):
        got, want = ad._row_sum(rows), a.sum(axis=-1)
    # IEEE 754 leaves open which NaN a sum of two NaNs returns, and numpy's
    # own add returns either one, by the element's place in its vector loop
    np.testing.assert_array_equal(_bits(np.where(np.isnan(got), np.nan, got)),
                                  _bits(np.where(np.isnan(want), np.nan, want)))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 129, 300])
def test_row_sum_of_negative_zeros_is_positive_zero(n):
    np.testing.assert_array_equal(_bits(ad._row_sum(np.full((n, 3), -0.0))),
                                  _bits(np.full((3, n), -0.0).sum(axis=-1)))


def test_concat_values():
    a, b = t([[1.0], [2.0]]), t([[3.0], [4.0]])
    cat = ad.concat([a, b], axis=1)
    assert np.allclose(cat.data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_backward_splits():
    a, b = t([[1.0, 2.0]]), t([[3.0, 4.0, 5.0]])
    y = ad.concat([a, b], axis=1)
    backward(ad.sum_all(ad.mul(y, y)))
    assert np.allclose(a.grad, 2.0 * a.data)
    assert np.allclose(b.grad, 2.0 * b.data)


def test_softmax_values_match_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5))
    y = ad.softmax(Tensor(x)).data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.allclose(y, e / e.sum(axis=-1, keepdims=True))


@st.composite
def _softmax_cases(draw):
    """K 2-40 classes after 1-4 leading axes, unit ones likely, a logit
    scale, rounded logits (ties and -0.0) or not, and a seed."""
    lead = draw(st.lists(st.sampled_from((1, 1, 2, 3, 5)), min_size=1, max_size=4))
    return ((*lead, draw(st.integers(2, 40))), draw(st.floats(0.01, 50.0)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(_softmax_cases())
def test_softmax_equals_whole_array_oracle_bit_for_bit(case):
    shape, scale, rounded, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=scale, size=shape)
    if rounded:
        x = np.round(x)
    g = rng.normal(size=shape)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    want = e / e.sum(axis=-1, keepdims=True)
    xt = Tensor(x, requires_grad=True)
    y = ad.softmax(xt)
    np.testing.assert_array_equal(_bits(y.data), _bits(want))
    y._backward(g)
    np.testing.assert_array_equal(
        _bits(xt.grad), _bits(want * (g - (g * want).sum(axis=-1, keepdims=True))))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + 123.0)).data
    assert np.allclose(a, b)


@settings(deadline=None, max_examples=30)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=5),
              elements=st.floats(-30, 30)))
def test_softmax_rows_sum_to_one(x):
    y = ad.softmax(Tensor(x)).data
    assert np.all(y >= 0)
    assert np.allclose(y.sum(axis=-1), 1.0)


# name -> (shape of both inputs, function of the two inputs)
SMOOTH_CASES = {
    "mul_sum": ((2, 3), lambda a, b: ad.sum_all(ad.mul(a, b))),
    "concat": ((2, 3), lambda a, b: ad.sum_all(ad.mul(c := ad.concat([a, b], 1), c))),
    "softmax_pick": ((2, 3), lambda a, b: ad.sum_all(
        ad.mul(ad.softmax(a), ad.softmax(b)))),
    # two overlapping 2-slice windows of a 3-slice stack: the middle
    # slice's gradient is the sum over both windows
    "fold_windows": ((1, 1, 1, 3, 2), lambda a, b: ad.sum_all(ad.mul(
        ad.fold_windows(a, 2), ad.softmax(ad.fold_windows(b, 2))))),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_CASES))
def test_primitive_gradients(name):
    shape, fn = SMOOTH_CASES[name]
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=shape))
        b = Tensor(rng.normal(size=shape))
        report = finite_difference_check(fn, [a, b])
        worst = max(worst, report.max_rel_error)
    assert worst < 1e-6, f"{name}: {worst}"


def test_gradient_check_comparing_no_coordinate_raises():
    # 5e-6 above a ReLU kink the 1e-5 step crosses it and the 1e-6 step does
    # not; their estimates (0.75 and 1.0) disagree, so the one coordinate is
    # skipped as non-smooth
    def relu(x):
        return ad.sum_all(ad._node(np.maximum(x.data, 0.0), (x,),
                                   lambda g: ad.accumulate_grad(x, g * (x.data > 0))))

    with pytest.raises(ValueError, match="compared no coordinate: 1 skipped"):
        finite_difference_check(relu, [t([5e-6])])


def test_topo_order_visits_parents_first():
    x = t([1.0])
    y = ad.mul(x, x)
    z = ad.sum_all(ad.concat([y, x], axis=0))
    order = ad.topo_order(z)
    assert order.index(x) < order.index(y) < order.index(z)


# ---------------------------------------------------------------------------
# no_grad


def test_no_grad_results_keep_no_graph():
    w, x = t([1.0, -2.0]), t([3.0, 4.0], requires_grad=False)
    with ad.no_grad():
        y = ad.sum_all(ad.mul(w, x))
    assert y.item() == -5.0
    assert y.parents == () and y._backward is None and not y.requires_grad


def test_no_grad_restores_after_exception_and_nesting():
    w = t([1.0])
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad.mul(w, w).parents == (w, w)
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.mul(w, w).parents == ()
    assert ad.mul(w, w).requires_grad


def test_backward_works_after_no_grad():
    x = t([1.0, 2.0])
    with ad.no_grad():
        ad.sum_all(ad.mul(x, x))
    backward(ad.sum_all(ad.mul(x, x)))
    assert np.allclose(x.grad, 2.0 * x.data)


def test_validate_matches_graph_building_forward():
    recipe = dataset_presets()["organ_and_lesion"]
    volume = generate_cohort(recipe, 1, seed=0)[0]
    spec = ModelSpec(mode="proposed", backbone="unet", d=3, in_channels=recipe.channels,
                     num_classes=recipe.num_classes, base_filters=4)
    model = assemble_model(spec, seed=0)
    samples = build_samples([volume], spec)[:6]
    config = TrainConfig(batch_size=4)
    graph_loss = 0.0
    for lo in (0, 4):
        batch = samples[lo:lo + 4]
        y = np.eye(spec.num_classes)[np.stack([s.target for s in batch]).astype(np.int64)]
        probs = model.forward(Tensor(np.stack([s.stack for s in batch])))
        assert probs.parents
        graph_loss += combined_loss(probs, y).item()
    loss, dsc = validate(model, samples, config)
    assert loss == graph_loss / 2
    with ad.no_grad():
        assert validate(model, samples, config) == (loss, dsc)
