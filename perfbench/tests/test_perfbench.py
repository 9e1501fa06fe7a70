"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""
import gc
import json
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import sliceseg  # noqa: E402
from sliceseg import analysis, autodiff, models  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the workload generator is deterministic for a seed


def _cell_state(cell):
    return ([p.data.copy() for p in cell.params.values()],
            [s.stack for s in cell.samples],
            [s.stack for s in cell.next_batch()])


def _assert_same_state(a, b):
    for xs, ys in zip(a, b):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            np.testing.assert_array_equal(x, y)


def test_train_step_inputs_repeat_for_a_seed_and_differ_across_seeds():
    wl = workloads.TrainStep(7, "")
    first, second, other = wl.build(7), wl.build(7), wl.build(8)
    assert [c.name for c in first] == workloads.TrainStep.cell_names()
    for a, b, c in zip(first, second, other):
        _assert_same_state(_cell_state(a), _cell_state(b))
        assert not np.array_equal(a.samples[0].stack, c.samples[0].stack)


@pytest.mark.parametrize("workload", [workloads.PredictVolume, workloads.GridRun])
def test_volume_inputs_repeat_for_a_seed(workload):
    if workload is workloads.GridRun:
        make = lambda seed: workload(seed, "").cohort()[0]  # noqa: E731
    else:
        make = lambda seed: workloads.normalized_cohort(workload.PRESET, 1, seed)  # noqa: E731
    a, b, c = make(3), make(3), make(4)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.image, y.image)
        np.testing.assert_array_equal(x.labels, y.labels)
    assert not np.array_equal(a[0].image, c[0].image)


def test_grid_cohort_skips_unplaceable_seeds():
    # The cohort starting at phantom seed 8000 cannot be placed, so
    # workload seed 8 moves on to the next block of six seeds.
    wl = workloads.GridRun(8, "")
    recipe = sliceseg.dataset_presets()[wl.PRESET]
    with pytest.raises(ValueError):
        sliceseg.generate_cohort(recipe, wl.VOLUMES, seed=8000)
    volumes, start = wl.cohort()
    assert start > 8000 and len(volumes) == wl.VOLUMES
    assert workloads.GridRun(1, "").cohort()[1] == 1000


# ---------------------------------------------------------------------------
# metric names


def _fake_metrics():
    op = workloads.Op("end2end_2d-unet-d01", 0.5, 8, True)
    tracer = Tracer(sliceseg)
    tracer.busy["ops.conv2d_fwd"] = 0.1
    layer, _ = run.layer_metrics(tracer, [op], 1.1, Tracer(sliceseg), 0.9,
                                 [op] * 12, 1.0, 1.1, workloads.all_cell_names())
    e2e, _ = run.end_to_end([op], [(8, 0.5)], 1.1, 1.0, 0.2, [0.8], 0.9)
    return e2e, layer


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _benchmark_json()
    e2e, layer = _fake_metrics()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in e2e.items()} == declared_e2e
    assert {k: v["unit"] for k, v in layer.items()} == declared_layer
    for name in list(declared_e2e) + list(declared_layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


# ---------------------------------------------------------------------------
# calibration


def test_calibration_scale_is_reference_over_median_block_and_gc_is_restored():
    c = calibrate.Calibration()
    for seconds in (0.0, 0.01, 0.02):
        c.block(seconds)
    assert len(c.blocks) == 3 and all(b > 0 for b in c.blocks)
    assert c.scale == pytest.approx(
        (calibrate.REFERENCE_REP_S / sorted(c.blocks)[1]) ** calibrate.ELASTICITY)
    assert gc.isenabled()
    c.reset()
    assert c.blocks == []


# ---------------------------------------------------------------------------
# percentile helper


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = list(range(100))
    value, pct = stats.tail(xs[::-1])
    assert (value, pct) == (89, 90.0)
    assert sum(x > value for x in xs) == 10

    # 20 samples: the 50th percentile still has ten samples beyond it
    value, pct = stats.tail(list(range(20)))
    assert (value, pct) == (9, 50.0)
    assert sum(x > value for x in range(20)) == 10

    # fewer: the percentile would fall under the median, so no tail
    assert stats.tail(list(range(19))) is None
    assert stats.tail([]) is None


def test_cell_median_geomean_weighs_every_cell_once():
    cells = {"a": [1.0, 1.0, 1.0, 9.0], "b": [2.0], "c": [4.0, 4.0], "d": []}
    assert stats.cell_median_geomean(cells) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# wrappers restore the program


def _snapshot():
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "sliceseg" or name.startswith("sliceseg."):
            out[name] = dict(vars(module))
    for cls in (models.SegmentationModel, models.TransitionBlock, models.EncoderDecoder):
        out[cls.__qualname__] = dict(vars(cls))
    return out


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    spec = models.ModelSpec("proposed", "unet", 3, 1, 2, base_filters=2)
    model = models.assemble_model(spec, seed=0)
    x = autodiff.Tensor(np.random.default_rng(0).normal(size=(2, 8, 8, 3, 1)))
    flops_untraced = analysis.count_flops(model, (8, 8))

    tracer = Tracer(sliceseg)
    with tracer:
        assert tracer.patches
        for owner, attr, original in tracer.patches:
            assert vars(owner)[attr] is not original
        loss = autodiff.sum_all(model.forward(x, training=True))
        autodiff.backward(loss)
        # the program's own cost trace still receives every record
        assert analysis.count_flops(model, (8, 8)) == flops_untraced

    assert not tracer.patches
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr}"
    for span in ("models.forward", "models.transition_fwd", "models.backbone_fwd",
                 "ops.conv3d_fwd", "ops.conv3d_bwd", "ops.conv2d_bwd", "autodiff.backward"):
        assert tracer.calls[span] > 0, span
    assert tracer.counts["conv_macs"] > 0 and tracer.counts["graph_nodes"] > 0
