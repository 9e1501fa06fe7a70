"""Phantom generator: determinism, separation, and exact metadata."""
import numpy as np
import pytest
from scipy import ndimage

from sliceseg.phantom import (PhantomRecipe, StructureRecipe, dataset_presets,
                              generate_cohort, generate_phantom)

RECIPE = PhantomRecipe(
    shape=(32, 32, 16),
    structures=(
        StructureRecipe(kind="ellipsoid", count=2, radius_range=(2.0, 4.0),
                        depth_range=(3, 6)),
        StructureRecipe(kind="cylinder", count=1, radius_range=(2.0, 3.0),
                        depth_range=(4, 8), drift_range=(0.2, 0.8)),
    ),
    channels=2,
)


def test_deterministic_for_fixed_seed():
    v1, m1 = generate_phantom(RECIPE, seed=5)
    v2, m2 = generate_phantom(RECIPE, seed=5)
    assert np.array_equal(v1.image, v2.image)
    assert np.array_equal(v1.labels, v2.labels)
    assert len(m1.structures) == len(m2.structures)
    for a, b in zip(m1.structures, m2.structures):
        assert a.slices == b.slices and a.voxel_count == b.voxel_count


def test_seeds_differ():
    v1, _ = generate_phantom(RECIPE, seed=0)
    v2, _ = generate_phantom(RECIPE, seed=1)
    assert not np.array_equal(v1.labels, v2.labels)


def test_shapes_and_dtypes():
    v, meta = generate_phantom(RECIPE, seed=2)
    assert v.image.shape == (32, 32, 16, 2)
    assert v.image.dtype == np.float64
    assert v.labels.shape == (32, 32, 16)
    assert v.labels.dtype == np.uint8
    assert meta.shape == (32, 32, 16)
    assert meta.num_classes == 3


def test_metadata_voxel_counts_exact():
    v, meta = generate_phantom(RECIPE, seed=3)
    for k in (1, 2):
        assert meta.class_voxel_count(k) == int((v.labels == k).sum())


def test_metadata_slices_and_centroids_exact():
    v, meta = generate_phantom(RECIPE, seed=4)
    total = np.zeros_like(v.labels, dtype=int)
    for s in meta.structures:
        mask = np.zeros(v.labels.shape, dtype=bool)
        for z in s.slices:
            assert s.slice_counts[z] > 0
        # rebuild the per-structure mask from the label map by class and
        # recorded slice membership; structures of one class never share a
        # slice region because of the separation constraint
        for z in s.slices:
            sl = v.labels[:, :, z] == s.class_id
            mask[:, :, z] = sl
        total += mask.astype(int)
    for s in meta.structures:
        zs = sorted(s.slices)
        assert zs == list(range(zs[0], zs[-1] + 1))
        assert s.depth == len(zs)
        assert s.voxel_count == sum(s.slice_counts.values())


def test_structures_are_disconnected_under_26_connectivity():
    v, meta = generate_phantom(RECIPE, seed=6)
    labeled, count = ndimage.label(v.labels > 0, structure=np.ones((3, 3, 3), int))
    assert count == len(meta.structures)


def test_per_structure_centroids_match_label_map():
    v, meta = generate_phantom(RECIPE, seed=7)
    for k in (1, 2):
        structs = meta.class_structures(k)
        labeled, count = ndimage.label(v.labels == k, structure=np.ones((3, 3, 3), int))
        assert count == len(structs)
        # each recorded centroid must sit inside some region of its class
        for s in structs:
            for z, (ci, cj) in s.slice_centroids.items():
                ii, jj = np.nonzero(v.labels[:, :, z] == k)
                assert ii.size > 0
                assert ii.min() - 0.5 <= ci <= ii.max() + 0.5
                assert jj.min() - 0.5 <= cj <= jj.max() + 0.5


def test_foreground_brighter_than_background():
    v, _ = generate_phantom(RECIPE, seed=8)
    fg = v.image[v.labels > 0].mean()
    bg = v.image[v.labels == 0].mean()
    assert fg > bg + 0.5


def test_cohort_unique_ids_and_determinism():
    vols = generate_cohort(RECIPE, 4, seed=9)
    ids = [v.patient_id for v in vols]
    assert len(set(ids)) == 4
    again = generate_cohort(RECIPE, 4, seed=9)
    for a, b in zip(vols, again):
        assert a.patient_id == b.patient_id
        assert np.array_equal(a.image, b.image)


def test_impossible_placement_raises():
    crowded = PhantomRecipe(
        shape=(10, 10, 6),
        structures=(StructureRecipe(count=30, radius_range=(3.0, 4.0),
                                    depth_range=(3, 5)),))
    with pytest.raises(ValueError):
        generate_phantom(crowded, seed=0)


def test_recipe_validation():
    with pytest.raises(ValueError):
        StructureRecipe(kind="torus")
    with pytest.raises(ValueError):
        StructureRecipe(radius_range=(0.0, 2.0))
    with pytest.raises(ValueError):
        StructureRecipe(depth_range=(5, 3))


@pytest.mark.parametrize("name", sorted(dataset_presets()))
def test_presets_generate(name):
    recipe = dataset_presets()[name]
    v, meta = generate_phantom(recipe, seed=1)
    assert v.labels.max() == recipe.num_classes - 1
    present = {s.class_id for s in meta.structures}
    assert present == set(range(1, recipe.num_classes))
