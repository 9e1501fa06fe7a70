"""Preprocessing, augmentation, fold splitting, and case serialization."""
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from sliceseg import volio
from sliceseg.data import (AugmentParams, SliceSample, augment, check_fold_sizes,
                           extract_stack, make_folds, normalize_ct, normalize_zscore)
from sliceseg.phantom import LabeledVolume, PhantomRecipe, generate_phantom


def make_volume(shape=(16, 16, 8), channels=1, seed=0, pid="p000"):
    rng = np.random.default_rng(seed)
    image = rng.normal(size=shape + (channels,))
    labels = rng.integers(0, 3, size=shape).astype(np.uint8)
    return LabeledVolume(image=image, labels=labels, voxel_spacing=(1.0, 1.0, 1.0),
                         patient_id=pid)


# ---------------------------------------------------------------------------
# intensity normalization


def test_ct_normalization_endpoints():
    x = np.array([-1000.0, 500.0, 2000.0])
    y = normalize_ct(x)
    assert y[0] == -1.0
    assert y[1] == 0.0
    assert y[2] == 1.0


def test_ct_normalization_clips_outliers():
    y = normalize_ct(np.array([-5000.0, 9000.0]))
    assert y[0] == -1.0 and y[1] == 1.0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=64))
def test_ct_normalization_bounded(values):
    y = normalize_ct(np.array(values))
    assert np.all(y >= -1.0) and np.all(y <= 1.0)


def test_zscore_normalization_moments():
    rng = np.random.default_rng(1)
    y = normalize_zscore(rng.normal(loc=7.0, scale=3.0, size=1000))
    assert abs(y.mean()) < 1e-12
    assert abs(y.std() - 1.0) < 1e-12


def test_zscore_rejects_constant_input():
    with pytest.raises(ValueError):
        normalize_zscore(np.full(10, 3.3))


# ---------------------------------------------------------------------------
# stack extraction


def test_extract_stack_center_slices():
    v = make_volume(shape=(8, 8, 8), seed=2)
    s = extract_stack(v, center=4, d=3)
    assert s.stack.shape == (8, 8, 3, 1)
    assert np.array_equal(s.stack[:, :, 1], v.image[:, :, 4])
    assert np.array_equal(s.target, v.labels[:, :, 4])
    assert s.slice_index == 4


def test_extract_stack_replicates_edges():
    v = make_volume(shape=(8, 8, 4), seed=3)
    s = extract_stack(v, center=0, d=5)
    # slices -2,-1 clamp to 0
    assert np.array_equal(s.stack[:, :, 0], v.image[:, :, 0])
    assert np.array_equal(s.stack[:, :, 1], v.image[:, :, 0])
    assert np.array_equal(s.stack[:, :, 2], v.image[:, :, 0])
    s_end = extract_stack(v, center=3, d=5)
    assert np.array_equal(s_end.stack[:, :, 4], v.image[:, :, 3])


def test_extract_stack_rejects_even_d():
    v = make_volume()
    with pytest.raises(ValueError):
        extract_stack(v, center=2, d=4)


# ---------------------------------------------------------------------------
# augmentation


def sample_for_augment(seed=0, d=3):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(12, 12, d, 2))
    target = rng.integers(0, 4, size=(12, 12)).astype(np.uint8)
    return SliceSample(stack=stack, target=target, patient_id="p", slice_index=1)


def test_augment_zero_probability_is_identity():
    s = sample_for_augment()
    out = augment(s, AugmentParams(probability=0.0), np.random.default_rng(0))
    assert np.array_equal(out.stack, s.stack)
    assert np.array_equal(out.target, s.target)


def test_augment_identity_params_identity():
    s = sample_for_augment()
    out = augment(s, AugmentParams.identity(), np.random.default_rng(1))
    assert np.array_equal(out.stack, s.stack)


def test_augment_pure_flip_is_exact_reversal():
    s = sample_for_augment(seed=4)
    params = AugmentParams(probability=1.0, enable_flip=True,
                           rotation_degrees=(0.0, 0.0), shear_range=(0.0, 0.0),
                           zoom_range=(1.0, 1.0), elastic_alpha=0.0)
    # find a draw that actually flips
    for seed in range(20):
        out = augment(s, params, np.random.default_rng(seed))
        if not np.array_equal(out.stack, s.stack):
            assert np.array_equal(out.stack, s.stack[:, ::-1])
            assert np.array_equal(out.target, s.target[:, ::-1])
            return
    pytest.fail("flip never triggered in 20 draws")


def test_augment_preserves_label_alphabet():
    s = sample_for_augment(seed=5)
    params = AugmentParams(probability=1.0)
    for seed in range(5):
        out = augment(s, params, np.random.default_rng(seed))
        assert set(np.unique(out.target)) <= set(np.unique(s.target))
        assert out.target.dtype == s.target.dtype
        assert out.stack.shape == s.stack.shape


def test_augment_deterministic_given_rng_seed():
    s = sample_for_augment(seed=6)
    params = AugmentParams(probability=1.0)
    a = augment(s, params, np.random.default_rng(42))
    b = augment(s, params, np.random.default_rng(42))
    assert np.array_equal(a.stack, b.stack)
    assert np.array_equal(a.target, b.target)


def test_augment_3d_target():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(12, 12, 8, 1))
    target = rng.integers(0, 3, size=(12, 12, 8)).astype(np.uint8)
    s = SliceSample(stack=stack, target=target, patient_id="p", slice_index=0)
    out = augment(s, AugmentParams(probability=1.0), np.random.default_rng(8))
    assert out.target.shape == (12, 12, 8)
    assert set(np.unique(out.target)) <= set(np.unique(target))


# ---------------------------------------------------------------------------
# fold splitting


def test_folds_partition_and_sizes():
    ids = [f"p{i:03d}" for i in range(100)]
    folds = make_folds(ids, num_folds=5, seed=1)
    assert len(folds) == 5
    all_test = []
    for f in folds:
        assert len(f.test) == 20
        assert len(f.val) == 16
        assert len(f.train) == 64
        assert not (set(f.train) & set(f.val))
        assert not (set(f.train) & set(f.test))
        assert not (set(f.val) & set(f.test))
        assert set(f.train) | set(f.val) | set(f.test) == set(ids)
        all_test.extend(f.test)
    # rotating test blocks cover every patient exactly once
    assert sorted(all_test) == sorted(ids)


def test_folds_deterministic_and_seed_sensitive():
    ids = [f"p{i}" for i in range(10)]
    a = make_folds(ids, num_folds=2, seed=3)
    b = make_folds(ids, num_folds=2, seed=3)
    c = make_folds(ids, num_folds=2, seed=4)
    assert a == b
    assert a != c


def test_folds_reject_duplicates_and_tiny_cohorts():
    with pytest.raises(ValueError):
        make_folds(["a", "a", "b"], num_folds=2)
    with pytest.raises(ValueError):
        make_folds(["a", "b"], num_folds=5)


def _every_fold_filled(n, k, val_fraction):
    # the per-fold emptiness check make_folds ran before the size rule
    blocks = np.array_split(np.arange(n), k)
    for i, test in enumerate(blocks):
        rest = [pid for j, b in enumerate(blocks) if j != i for pid in b]
        n_val = int(round(val_fraction * len(rest)))
        if not (len(test) and rest[:n_val] and rest[n_val:]):
            return False
    return True


@pytest.mark.parametrize("val_fraction", [0.1, 0.2, 0.5])
def test_fold_size_rule_matches_the_built_partitions(val_fraction):
    for n in range(40):
        for k in range(2, 12):
            if _every_fold_filled(n, k, val_fraction):
                check_fold_sizes(n, k, val_fraction)
                folds = make_folds(range(n), k, val_fraction=val_fraction)
                assert all(f.train and f.val and f.test for f in folds)
            else:
                for check in (lambda: check_fold_sizes(n, k, val_fraction),
                              lambda: make_folds(range(n), k, val_fraction=val_fraction)):
                    with pytest.raises(ValueError, match="too few"):
                        check()


# ---------------------------------------------------------------------------
# case serialization


def test_case_roundtrip_bit_exact(tmp_path):
    recipe = PhantomRecipe(shape=(16, 16, 8), channels=3)
    vol, _ = generate_phantom(recipe, seed=11, patient_id="case011")
    volio.save_case(tmp_path, vol)
    back = volio.load_case(tmp_path, "case011")
    assert np.array_equal(back.labels, vol.labels)
    # image round-trips through 32-bit storage
    assert np.allclose(back.image, vol.image, atol=1e-6)
    assert back.patient_id == "case011"


def test_case_listing_sorted(tmp_path):
    for pid in ("b01", "a02", "c00"):
        volio.save_case(tmp_path, make_volume(pid=pid, seed=1))
    assert volio.list_case_stems(tmp_path) == ["a02", "b01", "c00"]


def test_case_listing_empty_dir_raises(tmp_path):
    with pytest.raises(ValueError):
        volio.list_case_stems(tmp_path)


def test_read_rejects_truncated_file(tmp_path):
    volio.save_case(tmp_path, make_volume(pid="t0", seed=2))
    path = tmp_path / "t0.image.ssv"
    blob = path.read_bytes()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    with pytest.raises(ValueError):
        volio.load_case(tmp_path, "t0")


def test_read_rejects_bad_magic(tmp_path):
    volio.save_case(tmp_path, make_volume(pid="m0", seed=3))
    path = tmp_path / "m0.labels.ssv"
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(ValueError):
        volio.load_case(tmp_path, "m0")


def test_read_names_each_truncated_header_field(tmp_path):
    path = tmp_path / "a.ssv"
    volio.write_array(path, np.zeros((2, 3), dtype=np.uint8))
    blob = path.read_bytes()
    # magic 0-4, rank 4-8, extents 8-16, tag 16, payload 17-23
    for cut, cause in ((2, "truncated magic"), (6, "truncated rank"),
                       (12, "truncated extents"), (16, "truncated dtype tag"),
                       (20, "truncated payload")):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"a.ssv: {cause}"):
            volio.read_array(path)
    path.write_bytes(blob + b"junk")
    with pytest.raises(ValueError, match="a.ssv: 4 trailing bytes"):
        volio.read_array(path)


_stored_arrays = st.one_of(
    arrays(np.uint8, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)),
    arrays(np.float32, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
           elements=st.floats(-1e3, 1e3, width=32)))


@settings(deadline=None, max_examples=150)
@given(_stored_arrays, st.data())
def test_read_fuzzed_file_raises_or_roundtrips(tmp_path_factory, array, data):
    path = tmp_path_factory.mktemp("fuzz") / "a.ssv"
    volio.write_array(path, array)
    blob = path.read_bytes()
    # a strict prefix, the file itself, or the file with bytes appended
    cut = data.draw(st.integers(0, len(blob)), label="cut")
    extra = data.draw(st.binary(max_size=8), label="extra") if cut == len(blob) else b""
    path.write_bytes(blob[:cut] + extra)
    if cut == len(blob) and not extra:
        back = volio.read_array(path)
        assert back.shape == array.shape and np.array_equal(back, array)
    else:
        with pytest.raises(ValueError, match="a.ssv: "):
            volio.read_array(path)
