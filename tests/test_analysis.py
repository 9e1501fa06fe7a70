"""Structure features against hand values and the generator oracle,
model cost accounting, and the aggregate table of a run directory."""
import csv
import os
import re

import numpy as np
import pytest

from sliceseg import analysis, cli
from sliceseg.models import ModelSpec, assemble_model
from sliceseg.phantom import PhantomRecipe, StructureRecipe, generate_phantom


def vol(shape=(20, 20, 30)):
    return np.zeros(shape, dtype=np.uint8)


# ---------------------------------------------------------------------------
# structure depth


def test_depth_single_cuboid():
    v = vol()
    v[5:8, 5:8, 10:20] = 1
    assert analysis.structure_depth([v], 1) == 10.0


def test_depth_two_patients_hand_average():
    a, b = vol(), vol()
    a[5:8, 5:8, 3:7] = 1
    b[5:8, 5:8, 3:9] = 1
    assert analysis.structure_depth([a, b], 1) == 5.0


def test_depth_absent_class_raises():
    with pytest.raises(ValueError):
        analysis.structure_depth([vol()], 1)


def test_depth_skips_volumes_without_class():
    a, b = vol(), vol()
    a[5:8, 5:8, 3:7] = 1
    assert analysis.structure_depth([a, b], 1) == 4.0


def test_depth_divides_by_region_count():
    v = vol()
    v[2:4, 2:4, 0:4] = 1     # depth 4
    v[10:12, 10:12, 10:16] = 1  # depth 6, far away so regions stay separate
    # (4 + 6) / 2 regions; the paper's printed index sum would give 10 / 3
    assert analysis.structure_depth([v], 1) == 5.0


def test_regions_use_26_connectivity():
    v = vol()
    v[5, 5, 5] = 1
    v[6, 6, 6] = 1  # corner contact joins regions under 26-connectivity
    assert analysis.structure_depth([v], 1) == 2.0


# ---------------------------------------------------------------------------
# structure size


def test_size_direct_ratio():
    v = vol((100, 100, 100))
    v[0:10, 0:10, 0:10] = 1
    assert analysis.structure_size([v], 1) == 1e-3


def test_size_full_and_empty():
    v = vol((4, 4, 4))
    assert analysis.structure_size([v], 1) == 0.0
    v[:] = 1
    assert analysis.structure_size([v], 1) == 1.0


def test_size_requires_uniform_shapes():
    with pytest.raises(ValueError):
        analysis.structure_size([vol((4, 4, 4)), vol((5, 5, 5))], 1)


# ---------------------------------------------------------------------------
# structure displacement


def test_displacement_two_disk_hand_value():
    v = vol((30, 30, 2))
    v[10, 10, 0] = 1
    v[13, 14, 1] = 1
    assert analysis.structure_displacement([v], 1) == 2.5


def test_displacement_stacked_cylinder_is_zero():
    v = vol((10, 10, 6))
    v[3:6, 3:6, :] = 1
    assert analysis.structure_displacement([v], 1) == 0.0


def test_displacement_denominator_counts_all_slices():
    # the printed divisor is P*D even though only one pair contributes
    v = vol((30, 30, 10))
    v[10, 10, 0] = 1
    v[13, 14, 1] = 1
    assert analysis.structure_displacement([v], 1) == 0.5


def test_displacement_requires_consecutive_presence():
    v = vol((10, 10, 4))
    v[2, 2, 0] = 1
    v[2, 2, 2] = 1  # never two consecutive slices
    with pytest.raises(ValueError):
        analysis.structure_displacement([v], 1)


# ---------------------------------------------------------------------------
# generator oracle: features recomputed from rasterized masks must match
# the metadata recorded at placement time


ORACLE_RECIPE = PhantomRecipe(
    shape=(32, 32, 16),
    structures=(
        StructureRecipe(kind="ellipsoid", count=2, radius_range=(2.0, 3.5),
                        depth_range=(3, 6), drift_range=(0.0, 0.4)),
        StructureRecipe(kind="cylinder", count=1, radius_range=(2.0, 3.0),
                        depth_range=(5, 9), drift_range=(0.3, 0.9)),
    ),
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_features_match_generator_metadata(seed):
    volume, meta = generate_phantom(ORACLE_RECIPE, seed=seed)
    labels = [volume.labels]
    for k in (1, 2):
        depths = meta.class_depths(k)
        phi_meta = sum(depths) / len(depths)
        assert analysis.structure_depth(labels, k) == phi_meta

        upsilon_meta = meta.class_voxel_count(k) / np.prod(volume.labels.shape)
        upsilon = analysis.structure_size(labels, k)
        assert abs(upsilon - upsilon_meta) <= 0.05 * upsilon_meta
        assert np.isclose(upsilon, upsilon_meta)

        cents = meta.class_slice_centroids(k)
        total = 0.0
        for z in range(1, volume.labels.shape[2]):
            if z in cents and z - 1 in cents:
                total += float(np.hypot(cents[z][0] - cents[z - 1][0],
                                        cents[z][1] - cents[z - 1][1]))
        psi_meta = total / volume.labels.shape[2]
        psi = analysis.structure_displacement(labels, k)
        assert abs(psi - psi_meta) <= 0.5
        assert np.isclose(psi, psi_meta)


def test_class_feature_table_rows():
    volume, _ = generate_phantom(ORACLE_RECIPE, seed=3)
    rows = analysis.class_feature_table([volume.labels], 3)
    assert [r["class_id"] for r in rows] == [1, 2]
    for r in rows:
        assert r["depth"] >= 1.0
        assert 0.0 < r["size_fraction"] <= 1.0
        assert r["displacement"] >= 0.0


# ---------------------------------------------------------------------------
# cost accounting


def small_model(mode="proposed", d=3, backbone="unet"):
    return assemble_model(ModelSpec(mode=mode, backbone=backbone, d=d,
                                    in_channels=2, num_classes=3, base_filters=4),
                          seed=0)


def test_count_params_matches_tensor_sizes():
    model = small_model()
    expected = sum(t.data.size for t in model.parameters().values())
    assert analysis.count_params(model) == expected


def test_flops_scale_times_four_when_plane_doubles():
    model = small_model(mode="end2end_2d", d=1)
    f1 = analysis.count_flops(model, (16, 16))
    f2 = analysis.count_flops(model, (32, 32))
    assert f2 == 4 * f1


def test_flops_strictly_ordered_in_added_layers():
    f2d = analysis.count_flops(small_model(mode="end2end_2d", d=1), (16, 16))
    f3 = analysis.count_flops(small_model(d=3), (16, 16))
    f13 = analysis.count_flops(small_model(d=13), (16, 16))
    assert f13 > f3 > f2d


def test_activation_memory_positive_and_monotone():
    model = small_model()
    m1 = analysis.cost_report(model, (16, 16)).activation_memory_bytes
    m2 = analysis.cost_report(model, (32, 32)).activation_memory_bytes
    assert 0 < m1 < m2


def test_cost_report_static_fields():
    model = small_model()
    report = analysis.cost_report(model, (16, 16))
    assert report.parameter_count == analysis.count_params(model)
    assert report.flop_count > 0
    assert report.activation_memory_bytes > 0


# pinned (flop_count, activation_memory_bytes) at 16x16 in-plane: cost.csv
# in every run directory is written from these numbers
COST_GOLDEN = {
    ("end2end_2d", "unet", 1): (1333248, 409272),
    ("proposed", "unet", 3): (2033664, 494328),
    ("channel_based", "unet", 3): (1406976, 418616),
    ("end2end_3d", "unet", 8): (17412096, 1692216),
    ("end2end_2d", "segnet", 1): (780288, 349240),
    ("proposed", "segnet", 3): (1480704, 434296),
    ("channel_based", "segnet", 3): (854016, 358584),
    ("end2end_3d", "segnet", 8): (8896512, 1383096),
}


@pytest.mark.parametrize("mode,backbone,d", sorted(COST_GOLDEN))
def test_cost_report_matches_separate_counts_and_golden(mode, backbone, d):
    model = small_model(mode=mode, d=d, backbone=backbone)
    report = analysis.cost_report(model, (16, 16))
    assert report.flop_count == analysis.count_flops(model, (16, 16))
    assert (report.flop_count, report.activation_memory_bytes) == COST_GOLDEN[(mode, backbone, d)]


# ---------------------------------------------------------------------------
# aggregation: write_aggregate over hand-made run directories


def aggregate_rows(run_dir) -> list[dict]:
    with open(cli.write_aggregate(run_dir), "r", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_aggregate_hand_arithmetic(make_run_dir):
    [row] = aggregate_rows(make_run_dir({"proposed": (0.7, 0.9)}))
    assert float(row["mean_dsc"]) == pytest.approx(0.8)
    assert float(row["std_dsc"]) == pytest.approx(0.1)
    assert row["folds"] == "2"


def test_aggregate_identical_runs_zero_std(make_run_dir):
    [row] = aggregate_rows(make_run_dir({"proposed": (0.5,) * 5}))
    assert float(row["mean_dsc"]) == 0.5
    assert float(row["std_dsc"]) == 0.0


def test_aggregate_population_std(make_run_dir):
    # ddof 0: std sqrt(mean((x - mean)^2)), not the sample std
    scores = (0.6, 0.7, 0.8)
    [row] = aggregate_rows(make_run_dir({"proposed": scores}))
    assert float(row["std_dsc"]) == float(np.std(scores))
    assert float(row["std_dsc"]) != pytest.approx(np.std(scores, ddof=1))


def test_aggregate_missing_cell_error(make_run_dir):
    run_dir = make_run_dir({"end2end_2d": (0.7, 0.9), "proposed": (0.7, 0.9)})
    path = os.path.join(run_dir, "cells", "proposed-unet-d03", "fold1", "metrics.json")
    os.remove(path)
    with pytest.raises(ValueError, match=re.escape(f"missing result {path}")):
        cli.write_aggregate(run_dir)
    assert not os.path.exists(os.path.join(run_dir, "aggregate.csv"))


def test_aggregate_row_order_follows_expected_cells(make_run_dir):
    # grid order, which here is not sorted order
    rows = aggregate_rows(make_run_dir({"proposed": (0.7, 0.9), "end2end_2d": (0.5, 0.6),
                                        "channel_based": (0.1, 0.2)}))
    assert [(r["mode"], r["backbone"], r["d"]) for r in rows] == [
        ("proposed", "unet", "3"), ("end2end_2d", "unet", "1"),
        ("channel_based", "unet", "3")]
    assert [float(r["mean_dsc"]) for r in rows] == pytest.approx([0.8, 0.55, 0.15])


def test_aggregate_table_lines_header(make_run_dir):
    run_dir = make_run_dir({"proposed": (0.7, 0.9)})
    with open(cli.write_aggregate(run_dir), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "mode,backbone,d,folds,mean_dsc,std_dsc"
    assert len(lines) == 2
